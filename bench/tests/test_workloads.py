import pytest

import workloads

EXCLUDED = {"stereoDisparity", "Mandelbrot", "transpose", "dct8x8",
            "convolutionSeparable", "SobelFilter"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    assert workloads.requests(name, 7, 40) == workloads.requests(name, 7, 40)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_requests(name):
    assert workloads.requests(name, 7, 40) != workloads.requests(name, 8, 40)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_excluded_apps_are_never_drawn(name):
    apps = {r.app for seed in range(5) for r in workloads.requests(name, seed, 100)}
    assert not apps & EXCLUDED


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_app_runs_the_same_number_of_times_on_every_seed(name):
    def shares(seed):
        apps = [r.app for r in workloads.requests(name, seed, 96)]
        return sorted((app, apps.count(app)) for app in set(apps))

    assert shares(1) == shares(2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmups_come_from_another_seed(name):
    warm = workloads.warmup_requests(name, 1)
    assert len(warm) == workloads.WARMUP_REQUESTS
    assert warm != workloads.requests(name, 1, workloads.WARMUP_REQUESTS)


def test_workload_shapes():
    fleet = workloads.requests("fleet-coalesce", 1, 100)
    assert all(16 <= r.n_vps <= 64 and r.n_host_gpus == 1 and r.coalescing for r in fleet)
    multi = workloads.requests("multigpu-interleave", 1, 100)
    assert all(16 <= r.n_vps <= 48 and r.n_host_gpus in (2, 4) and not r.coalescing
               for r in multi)
    functional = workloads.requests("functional-batched", 1, 99)
    assert all(r.functional and 4 <= r.n_vps <= 16 for r in functional)
    assert sum(r.coalescing for r in functional) == 66
