"""Execution-backend test doubles, registered under their own names.

:class:`PerLaunchBackend` is the numpy backend with stacked batching
refused: its ``_launch_batched`` returns ``None``, so the dispatcher
takes the per-VP fallback for every merged launch.  Running a scenario
under it and under ``numpy`` proves the batched path and the fallback
compute the same thing, with no toggle in the program itself.

:class:`StackedLaunchBackend` is the opposite extreme: every launch of a
batch-flagged signature, single ones included, runs through the stacked
``(N, ...)`` path as a batch of one.  Conformance under it proves the
stacked path equals the direct call even where the dispatcher would
never form a batch.
"""

from repro.backend import NumpyBackend, register_backend

#: Registry name of :class:`PerLaunchBackend`.
PER_LAUNCH = "numpy-per-launch"

#: Registry name of :class:`StackedLaunchBackend`.
STACKED = "numpy-batched"


@register_backend
class PerLaunchBackend(NumpyBackend):
    """Numpy execution that always asks for the per-VP fallback."""

    name = PER_LAUNCH
    description = "test double: numpy with stacked batching refused"

    def _launch_batched(self, fn, inputs_list, params):
        return None


@register_backend
class StackedLaunchBackend(NumpyBackend):
    """Numpy execution that stacks every launch it can, even alone."""

    name = STACKED
    description = "test double: numpy with every launch a stacked batch"

    def launch(self, signature, inputs, params=None):
        rows = self.launch_batched(signature, [tuple(inputs)], params)
        if rows is None:
            return super().launch(signature, inputs, params)
        return rows[0]
