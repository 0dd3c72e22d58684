"""Workload specifications: the benchmark applications SigmaVP simulates.

The paper evaluates "the suite of benchmark GPU applications available as
part of the CUDA SDK" (Section 5, Fig. 11).  Each application is modelled
as a :class:`WorkloadSpec`: a kernel IR with a measured-style instruction
mix, a data geometry, an iteration pattern, the scalar-op count of its C
implementation (the Table 1 comparison), and the amount of non-CUDA work
(file I/O, OpenGL) that SigmaVP cannot accelerate — the attribute that
caps the speedups of Mandelbrot, simpleGL, and friends in Fig. 11.

A spec compiles into an *application*: a generator driving the
:class:`~repro.vp.cuda_runtime.CudaRuntime` API with the canonical CUDA
loop — copy inputs in, launch, copy results out, synchronize.  The same
application runs unchanged on every backend, which is exactly the
paper's binary-compatibility story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..kernels.functional import FunctionalRegistry
from ..kernels.ir import KernelIR
from ..kernels.launch import LaunchConfig, launch_for_elements
from ..vp.cuda_runtime import CudaRuntime

#: Input factory: (rng, array_index, spec) -> numpy array.
InputFactory = Callable[[np.random.Generator, int, "WorkloadSpec"], np.ndarray]


def uniform(
    rng: np.random.Generator, shape, lo: float = -1.0, hi: float = 1.0, dtype=np.float32
) -> np.ndarray:
    """Values uniform on ``[lo, hi)``, drawn directly in ``dtype``.

    One array, scaled in place: no float64 draw and cast, whose extra
    temporary costs as much as the draw itself.
    """
    values = rng.random(shape, dtype=dtype)
    values *= hi - lo
    values += lo
    return values


def _default_input(rng: np.random.Generator, index: int, spec: "WorkloadSpec") -> np.ndarray:
    return uniform(rng, spec.elements, dtype=np.float64 if spec.element_bytes == 8 else np.float32)


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark application, fully parameterized."""

    name: str
    kernel: KernelIR
    elements: int
    input_arrays: int = 2
    output_elements: Optional[int] = None
    element_bytes: int = 4
    block_size: int = 256
    iterations: int = 1
    streaming: bool = True
    #: Inputs copied once, but results copied back every iteration — the
    #: shape of the OpenGL apps, whose frames must return to the *guest*
    #: (where the paper's non-accelerated OpenGL rendering runs).
    readback_only: bool = False
    #: The kernel updates its first input in place (out = inputs[0]), so
    #: iterations chain: step k+1 sees step k's state.  Physics engines
    #: and other stateful simulations use this.
    feedback: bool = False
    sync_every: int = 1
    noncuda_ops: float = 0.0
    c_ops: float = 0.0
    problem_size: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)
    input_factory: InputFactory = _default_input
    description: str = ""

    def __post_init__(self) -> None:
        if self.elements <= 0:
            raise ValueError(f"{self.name}: elements must be positive")
        if self.iterations <= 0:
            raise ValueError(f"{self.name}: iterations must be positive")
        if self.input_arrays < 0:
            raise ValueError(f"{self.name}: input_arrays must be non-negative")
        if self.sync_every <= 0:
            raise ValueError(f"{self.name}: sync_every must be positive")

    # -- geometry -----------------------------------------------------------

    @property
    def out_elements(self) -> int:
        return self.output_elements if self.output_elements is not None else self.elements

    @property
    def input_nbytes(self) -> int:
        return self.elements * self.element_bytes

    @property
    def output_nbytes(self) -> int:
        return self.out_elements * self.element_bytes

    def launch_config(self) -> LaunchConfig:
        return launch_for_elements(
            self.elements,
            block_size=self.block_size,
            elements_per_thread=self.kernel.elements_per_thread,
            problem_size=self.problem_size,
        )

    def scaled_to(self, elements: int, iterations: Optional[int] = None) -> "WorkloadSpec":
        """The same app over a different data size (parameter sweeps)."""
        factor = elements / self.elements
        return WorkloadSpec(
            name=self.name,
            kernel=self.kernel.with_footprint(self.kernel.footprint.scaled(factor)),
            elements=elements,
            input_arrays=self.input_arrays,
            output_elements=(
                None if self.output_elements is None
                else max(1, int(round(self.output_elements * factor)))
            ),
            element_bytes=self.element_bytes,
            block_size=self.block_size,
            iterations=iterations if iterations is not None else self.iterations,
            streaming=self.streaming,
            readback_only=self.readback_only,
            feedback=self.feedback,
            sync_every=self.sync_every,
            noncuda_ops=self.noncuda_ops,
            c_ops=self.c_ops * factor,
            problem_size=self.problem_size,
            params=dict(self.params),
            input_factory=self.input_factory,
            description=self.description,
        )

    def check_functional(self) -> None:
        """Raise ``ValueError`` if the functional kernel cannot run here.

        Called before a functional simulation starts, so a geometry the
        registered numpy implementation cannot reshape fails with the
        constraint named instead of deep inside a device engine.  Kernels
        taking a ``vectors`` parameter split each input into that many
        equal rows; kernels taking a ``row_width`` parameter fold each
        input into rows of that many elements.
        """
        vectors = self.params.get("vectors")
        if vectors and self.elements % vectors:
            raise ValueError(
                f"{self.name}: functional execution splits each input into "
                f"{vectors} vectors, so elements ({self.elements}) must be a "
                f"multiple of {vectors}"
            )
        row_width = self.params.get("row_width")
        if row_width and self.elements % row_width:
            raise ValueError(
                f"{self.name}: functional execution folds each input into "
                f"rows of {row_width}, so elements ({self.elements}) must be a "
                f"multiple of {row_width}"
            )

    def build_inputs(self, seed: int = 0) -> List[np.ndarray]:
        rng = np.random.default_rng(seed)
        return [self.input_factory(rng, i, self) for i in range(self.input_arrays)]

    # -- characterization (drives the Fig. 11 narrative) -----------------------

    @property
    def fp_fraction(self) -> float:
        """Fraction of kernel instructions that are floating point."""
        ctx = self.launch_config().context()
        mix = self.kernel.per_thread_mix(ctx)
        total = mix.total
        return mix.flops / total if total else 0.0

    @property
    def uses_noncuda(self) -> bool:
        return self.noncuda_ops > 0

    @property
    def coalescible(self) -> bool:
        return self.kernel.coalescible


def shared_inputs(
    spec: WorkloadSpec, registry: FunctionalRegistry, seed: int = 0
) -> Optional[List[np.ndarray]]:
    """The one input set every VP of a timing-only run shares, or ``None``.

    A run whose functional registry is empty executes no kernel, so no
    input value is ever read: the model sees only shapes, dtypes and
    ``nbytes``, which every factory draws independently of the seed.
    Such a run builds ``spec``'s inputs once, from the first VP's
    ``seed``, and marks them read-only so a stray in-place write fails
    loudly instead of leaking between VPs.  A run that can execute a
    kernel gets ``None``: each VP draws ``build_inputs`` from its own
    seed inside :func:`build_app`.
    """
    if len(registry):
        return None
    inputs = spec.build_inputs(seed)
    for array in inputs:
        array.flags.writeable = False
    return inputs


def build_app(
    spec: WorkloadSpec,
    api: CudaRuntime,
    seed: int = 0,
    inputs: Optional[List[np.ndarray]] = None,
):
    """Compile a spec into an application generator for ``api``.

    The returned zero-argument callable yields the canonical CUDA loop:
    allocate, (copy in, launch, copy out) x iterations, synchronize, with
    the spec's non-CUDA work split around the GPU phase.  ``inputs`` is
    a prebuilt input list (see :func:`shared_inputs`); without one the
    app draws ``spec.build_inputs(seed)`` when it starts.
    """

    def app():
        app_inputs = spec.build_inputs(seed) if inputs is None else inputs
        in_handles: List[str] = []
        for array in app_inputs:
            handle = yield from api.malloc(int(array.nbytes))
            in_handles.append(handle)
        if spec.feedback:
            out_handle = in_handles[0]
        else:
            out_handle = yield from api.malloc(spec.output_nbytes)

        if spec.noncuda_ops:
            # Input-side non-CUDA work: file reads, scene setup.
            yield from api.cpu_work(spec.noncuda_ops / 2.0)

        launch = spec.launch_config()
        copies_in_loop = spec.streaming and not spec.readback_only
        if not copies_in_loop:
            for handle, array in zip(in_handles, app_inputs):
                yield from api.memcpy_h2d(handle, array, sync=False)

        result = None
        for iteration in range(spec.iterations):
            if copies_in_loop:
                for handle, array in zip(in_handles, app_inputs):
                    yield from api.memcpy_h2d(handle, array, sync=False)
            yield from api.launch_kernel(
                spec.kernel,
                launch,
                args=in_handles,
                out=out_handle,
                params=spec.params,
                sync=False,
            )
            if spec.streaming or spec.readback_only:
                result = yield from api.memcpy_d2h(
                    out_handle, nbytes=spec.output_nbytes, sync=False
                )
            if (iteration + 1) % spec.sync_every == 0:
                yield from api.synchronize()

        if result is None:
            result = yield from api.memcpy_d2h(
                out_handle, nbytes=spec.output_nbytes, sync=False
            )
        yield from api.synchronize()

        if spec.noncuda_ops:
            # Output-side non-CUDA work: file writes, OpenGL rendering.
            yield from api.cpu_work(spec.noncuda_ops / 2.0)

        if result is not None and result.ready:
            return result.value
        return None

    return app
