"""Execution-backend test doubles, injected by class.

``SigmaVP`` and the ``run_*`` scenario runners take the backend class as
``backend=``; passing one of these subclasses swaps it in for
:class:`~repro.backend.NumpyBackend` with no toggle in the program.

:class:`PerLaunchBackend` is the numpy backend with stacked batching
refused: its ``_launch_batched`` returns ``None``, so the dispatcher
takes the per-VP fallback for every merged launch.  Running a scenario
under it and under ``NumpyBackend`` proves the batched path and the
fallback compute the same thing.

:class:`StackedLaunchBackend` is the opposite extreme: every launch of a
batch-flagged signature, single ones included, runs through the stacked
``(N, ...)`` path as a batch of one.  Conformance under it proves the
stacked path equals the direct call even where the dispatcher would
never form a batch.
"""

from repro.backend import NumpyBackend


class PerLaunchBackend(NumpyBackend):
    """Numpy execution that always asks for the per-VP fallback."""

    name = "numpy-per-launch"

    def _launch_batched(self, fn, inputs_list, params):
        return None


class StackedLaunchBackend(NumpyBackend):
    """Numpy execution that stacks every launch it can, even alone."""

    name = "numpy-batched"

    def launch(self, signature, inputs, params=None):
        rows = self.launch_batched(signature, [tuple(inputs)], params)
        if rows is None:
            return super().launch(signature, inputs, params)
        return rows[0]
