"""The execution-backend test double, injected by class.

``SigmaVP`` and the ``run_*`` scenario runners take the backend class as
``backend=``; passing :class:`Recording` swaps it in for
:class:`~repro.backend.NumpyBackend` with no toggle in the program.

:class:`Recording` is a third-party style backend built on the bare
:class:`~repro.backend.ExecutionBackend` template: plain ``np.asarray``
transfers (no read-only view) and a direct call per launch.  Running a
scenario under it and under ``NumpyBackend`` proves that the result does
not depend on which class executes it, and that a subclass inherits the
allocation ledger and the ``exec.backend_*`` counters for free.
"""

import numpy as np

from repro.backend import ExecutionBackend


class Recording(ExecutionBackend):
    """A minimal host backend: only the three required hooks."""

    name = "recording"

    def asarray(self, host):
        return np.asarray(host)

    def _h2d(self, host):
        return np.asarray(host)

    def _d2h(self, device):
        return device

    def _launch(self, fn, inputs, params):
        return fn(*inputs, **params)


class Counting(Recording):
    """:class:`Recording` that tallies every transfer, launch, allocation
    and free asked of it.

    The public methods are counted, not the hooks: a launch of an
    unregistered signature answers ``None`` before reaching ``_launch``
    but still counts as asked.
    """

    name = "counting"

    def __init__(self, registry=None):
        super().__init__(registry)
        self.calls = {"h2d": 0, "d2h": 0, "launch": 0}
        #: Allocation-ledger calls, apart from :attr:`calls`.
        self.ledger_calls = {"allocate": 0, "free": 0}

    def allocate(self, nbytes, owner=""):
        self.ledger_calls["allocate"] += 1
        return super().allocate(nbytes, owner)

    def free(self, token):
        self.ledger_calls["free"] += 1
        return super().free(token)

    def h2d(self, host):
        self.calls["h2d"] += 1
        return super().h2d(host)

    def d2h(self, device):
        self.calls["d2h"] += 1
        return super().d2h(device)

    def launch(self, signature, inputs, params=None):
        self.calls["launch"] += 1
        return super().launch(signature, inputs, params)
