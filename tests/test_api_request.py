"""The RunRequest schema: validation, wire round-trip, identity stability.

The api_redesign contract: one frozen request object whose farm-job
projection emits byte-identical kwargs to the legacy CLI plumbing, so
config-hash keys (and everything derived from them — deterministic
seeds, results digests) are unchanged for every previously recorded run.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.api import (
    _ALWAYS_KEYS,
    _OPTIONAL_KEYS,
    _ROUTING_KEYS,
    SCHEMA_VERSION,
    RequestError,
    RunRequest,
    run,
    scenario,
)
from repro.exec.farm import FarmJob, results_digest


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_defaults_are_the_legacy_defaults():
    request = RunRequest(app="vectorAdd")
    assert request.n_vps == 8
    assert request.interleaving and request.coalescing
    assert request.transport == "socket"
    assert request.n_host_gpus == 1
    assert request.schema == SCHEMA_VERSION
    assert request.tenant == "default"


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"schema": 99}, "bad-schema"),
        ({"app": ""}, "bad-value"),
        ({"n_vps": 0}, "bad-value"),
        ({"n_vps": True}, "bad-value"),
        ({"n_host_gpus": 0}, "bad-value"),
        ({"max_batch": 0}, "bad-value"),
        ({"transport": "carrier-pigeon"}, "bad-value"),
        ({"scale_elements": 0}, "bad-value"),
        ({"scale_iterations": -1}, "bad-value"),
        ({"max_batch": "8"}, "bad-value"),
        ({"scale_iterations": True}, "bad-value"),
        ({"tenant": ""}, "bad-value"),
        ({"tenant": "a\nb"}, "bad-value"),
        ({"qos": -1}, "bad-value"),
        ({"qos": True}, "bad-value"),
        ({"functional": 1}, "bad-value"),
        ({"interleaving": "no"}, "bad-value"),
        ({"coalescing": None}, "bad-value"),
        ({"app": "doom"}, "bad-value"),
        ({"app": ["vectorAdd"]}, "bad-value"),
        ({"policy": "doom"}, "bad-value"),
        ({"placement": "doom"}, "bad-value"),
        ({"policy": 1}, "bad-value"),
    ],
)
def test_validation_rejects_with_structured_code(overrides, code):
    kwargs = {"app": "vectorAdd", **overrides}
    with pytest.raises(RequestError) as excinfo:
        RunRequest(**kwargs)
    assert excinfo.value.code == code


def test_frozen():
    request = RunRequest(app="vectorAdd")
    with pytest.raises(AttributeError):
        request.n_vps = 4  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Wire round-trip
# ---------------------------------------------------------------------------


def test_round_trip_preserves_every_field():
    request = RunRequest(
        app="mergeSort", n_vps=4, interleaving=False, coalescing=False,
        transport="shm", n_host_gpus=2, max_batch=8, scale_elements=1024,
        scale_iterations=3, functional=True, policy="fair-share",
        placement="least-backlog", tenant="acme", qos=2,
    )
    assert RunRequest.from_dict(request.to_dict()) == request


def test_from_dict_rejects_unknown_fields_by_name():
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict({"app": "vectorAdd", "colour": "red", "n_cpus": 4})
    assert excinfo.value.code == "bad-field"
    assert "colour" in str(excinfo.value) and "n_cpus" in str(excinfo.value)


def test_from_dict_rejects_wrong_schema_and_non_dict():
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict({"app": "vectorAdd", "schema": SCHEMA_VERSION + 1})
    assert excinfo.value.code == "bad-schema"
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict(["not", "a", "dict"])  # type: ignore[arg-type]
    assert excinfo.value.code == "bad-frame"
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict({"n_vps": 4})
    assert excinfo.value.code == "bad-field"


def test_from_dict_defaults_schema_and_rejects_retired_shards():
    assert RunRequest.from_dict({"app": "vectorAdd"}).schema == SCHEMA_VERSION
    # Schema 2 dropped the ``shards`` field: it is now an unknown field.
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict({"app": "vectorAdd", "shards": 2})
    assert excinfo.value.code == "bad-field"
    assert "shards" in str(excinfo.value)


def test_from_dict_rejects_retired_backend():
    # Schema 3 dropped the ``backend`` field: it is now an unknown field.
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict({"app": "vectorAdd", "backend": "numpy"})
    assert excinfo.value.code == "bad-field"
    assert "backend" in str(excinfo.value)


def test_from_dict_rejects_schema_2_payload():
    with pytest.raises(RequestError) as excinfo:
        RunRequest.from_dict({"app": "vectorAdd", "schema": 2})
    assert excinfo.value.code == "bad-schema"


def test_with_overrides_revalidates():
    request = RunRequest(app="vectorAdd")
    assert request.with_overrides(n_vps=2).n_vps == 2
    with pytest.raises(RequestError):
        request.with_overrides(n_vps=0)


# ---------------------------------------------------------------------------
# Identity: config-hash stability against the legacy kwargs rule
# ---------------------------------------------------------------------------


def _legacy_job(app, n_vps, **extra):
    """The exact FarmJob the pre-redesign CLI plumbing built."""
    return FarmJob(
        fn="repro.exec.jobs:scenario_summary",
        kwargs={
            "app": app,
            "n_vps": n_vps,
            "interleaving": extra.pop("interleaving", True),
            "coalescing": extra.pop("coalescing", True),
            "transport": extra.pop("transport", "socket"),
            "n_host_gpus": extra.pop("n_host_gpus", 1),
            **extra,
        },
        label=f"{app}:{n_vps}vps",
    )


def test_default_request_keeps_legacy_config_hash():
    legacy = _legacy_job("vectorAdd", 8)
    job = RunRequest(app="vectorAdd").to_farm_job()
    assert job.kwargs == legacy.kwargs
    assert job.key == legacy.key
    assert job.seed == legacy.seed
    assert job.label == legacy.label


def test_non_default_tuning_enters_kwargs_exactly_like_legacy():
    legacy = _legacy_job(
        "mergeSort", 4, interleaving=False, transport="shm", n_host_gpus=2,
        policy="priority-deadline", placement="least-backlog",
        functional=True,
    )
    job = RunRequest(
        app="mergeSort", n_vps=4, interleaving=False, transport="shm",
        n_host_gpus=2, policy="priority-deadline", placement="least-backlog",
        functional=True,
    ).to_farm_job()
    assert job.kwargs == legacy.kwargs
    assert job.key == legacy.key


def test_default_tuning_stays_out_of_kwargs():
    kwargs = RunRequest(app="vectorAdd").job_kwargs()
    for absent in ("max_batch", "functional", "policy", "placement",
                   "scale_elements", "scale_iterations"):
        assert absent not in kwargs
    for present in ("app", "n_vps", "interleaving", "coalescing",
                    "transport", "n_host_gpus"):
        assert present in kwargs


def test_identity_pins():
    """Config hash and seed of two requests, pinned as recorded."""
    default = RunRequest(app="vectorAdd")
    assert (default.config_hash, default.seed) == ("5b97ede1e9618cae", 1536683489)
    tuned = RunRequest(
        app="mergeSort", n_vps=4, interleaving=False, transport="shm",
        n_host_gpus=2, policy="priority-deadline", placement="least-backlog",
        functional=True,
    )
    assert (tuned.config_hash, tuned.seed) == ("625e9501874d9457", 1650365697)
    for request in (default, tuned):
        job = request.to_farm_job()
        assert (job.key, job.seed) == (request.config_hash, request.seed)


def test_every_field_has_exactly_one_identity_role():
    roles = (_ALWAYS_KEYS, _OPTIONAL_KEYS, _ROUTING_KEYS)
    for f in fields(RunRequest):
        assert sum(f.name in keys for keys in roles) == 1, f.name
    assert sum(len(keys) for keys in roles) == len(fields(RunRequest))


def test_tenant_and_qos_never_enter_scenario_identity():
    base = RunRequest(app="vectorAdd")
    routed = RunRequest(app="vectorAdd", tenant="acme", qos=3)
    assert base.config_hash == routed.config_hash
    assert base.seed == routed.seed
    assert "tenant" not in routed.job_kwargs()
    assert "qos" not in routed.job_kwargs()
    assert "schema" not in routed.job_kwargs()


# ---------------------------------------------------------------------------
# Execution facade
# ---------------------------------------------------------------------------


def test_run_and_scenario_agree_bit_identically():
    request = RunRequest(
        app="vectorAdd", n_vps=2, scale_elements=256, scale_iterations=2
    )
    outcome = run(request)
    assert outcome.value == scenario(request).summary()
    assert outcome.config_hash == request.config_hash
    assert outcome.digest == results_digest([_fake(outcome, request)])


def _fake(outcome, request):
    """Rebuild the FarmResult shape results_digest hashes."""
    from repro.exec.farm import FarmResult

    return FarmResult(
        job_key=request.config_hash, fn="repro.exec.jobs:scenario_summary",
        label="x", value=outcome.value, duration_s=0.0, worker_pid=0,
    )


def test_run_digest_matches_farm_digest_for_same_request():
    from repro.exec.farm import run_job, warm_worker

    request = RunRequest(
        app="vectorAdd", n_vps=2, scale_elements=256, scale_iterations=2
    )
    warm_worker()
    farm_result = run_job(request.to_farm_job())
    assert run(request).digest == results_digest([farm_result])
