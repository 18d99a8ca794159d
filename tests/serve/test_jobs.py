"""Job validation, canonicalization and the three derived keys."""

from __future__ import annotations

import pytest

from repro.artifacts import machine_fingerprint
from repro.serve.jobs import (
    _BUDGETS,
    DEFAULT_DEADLINE_S,
    PARAM_DEFAULTS,
    artifact_key,
    batch_key,
    group_signature,
    kind_code_fingerprint,
    validate_job,
    warm_key,
    warm_key_payload,
)


class TestValidate:
    def test_defaults_fill_omitted_params(self):
        spec = validate_job({"kind": "ensemble"})
        assert spec.params == PARAM_DEFAULTS["ensemble"]
        assert spec.memoize is True
        assert spec.deadline_s == DEFAULT_DEADLINE_S

    def test_explicit_params_override(self):
        spec = validate_job(
            {"kind": "ensemble", "params": {"ntraj": 8, "seed": 1}}
        )
        assert spec.params["ntraj"] == 8
        assert spec.params["seed"] == 1
        assert spec.params["nsteps"] == PARAM_DEFAULTS["ensemble"]["nsteps"]

    def test_omission_insensitive_identity(self):
        """Defaults spelled out and defaults omitted hash identically --
        the property artifact memoization relies on."""
        a = validate_job({"kind": "scf"})
        b = validate_job({"kind": "scf", "params": dict(PARAM_DEFAULTS["scf"])})
        assert a.config_digest == b.config_digest

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            validate_job({"kind": "molecule"})

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown ensemble parameter"):
            validate_job({"kind": "ensemble", "params": {"ntrajs": 8}})

    @pytest.mark.parametrize("kind,name,budget", [
        (kind, name, budget) for kind, table in sorted(_BUDGETS.items())
        for name, budget in sorted(table.items())
    ])
    def test_work_sizes_are_budgeted(self, kind, name, budget):
        assert validate_job({"kind": kind}).params[name] <= budget
        for value in (1, budget):
            spec = validate_job({"kind": kind, "params": {name: value}})
            assert spec.params[name] == value
        for value in (0, -3, budget + 1, 10**12, 2.0, True, "8", None):
            with pytest.raises(ValueError, match=f"{kind} {name} must be"):
                validate_job({"kind": kind, "params": {name: value}})

    @pytest.mark.parametrize("deadline", [-1, 0, float("nan"), float("inf"),
                                          "x", [1]])
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="deadline_s"):
            validate_job({"kind": "scf", "deadline_s": deadline})

    def test_default_deadline_applies_when_unset(self):
        spec = validate_job({"kind": "scf"}, default_deadline_s=30.0)
        assert spec.deadline_s == 30.0
        spec = validate_job({"kind": "scf", "deadline_s": 5},
                            default_deadline_s=30.0)
        assert spec.deadline_s == 5.0
        spec = validate_job({"kind": "scf", "deadline_s": None},
                            default_deadline_s=30.0)
        assert spec.deadline_s == 30.0

    def test_job_ids_unique_when_omitted(self):
        a = validate_job({"kind": "scf"})
        b = validate_job({"kind": "scf"})
        assert a.job_id != b.job_id
        assert validate_job({"kind": "scf", "id": "mine"}).job_id == "mine"


class TestBatchKey:
    def test_scf_all_coalesce(self):
        a = validate_job({"kind": "scf", "params": {"grid": 12}})
        b = validate_job({"kind": "scf", "params": {"separation": 1.2}})
        assert batch_key(a) == batch_key(b) == "scf"

    def test_run_never_coalesces(self):
        assert batch_key(validate_job({"kind": "run"})) is None

    def test_ensemble_free_axes_do_not_split(self):
        base = validate_job({"kind": "ensemble", "params": {"nsteps": 10}})
        for free in ({"seed": 99}, {"ntraj": 4}, {"batch_size": 2},
                     {"istate": 0}):
            other = validate_job(
                {"kind": "ensemble", "params": {"nsteps": 10, **free}}
            )
            assert batch_key(other) == batch_key(base)

    def test_ensemble_physics_axes_split(self):
        base = validate_job({"kind": "ensemble"})
        for bound in ({"nsteps": 9}, {"coupling": 0.1},
                      {"decoherence": "edc"}, {"path_seed": 8}):
            other = validate_job({"kind": "ensemble", "params": bound})
            assert batch_key(other) != batch_key(base)

    def test_spectrum_groups_by_ground_state(self):
        a = validate_job({"kind": "spectrum", "params": {"steps": 400}})
        b = validate_job({"kind": "spectrum", "params": {"steps": 800}})
        c = validate_job({"kind": "spectrum", "params": {"grid": 16}})
        assert batch_key(a) == batch_key(b)  # steps is propagation-only
        assert batch_key(c) != batch_key(a)


class TestWarmKey:
    def test_spectrum_key_ignores_propagation_axes(self):
        a = validate_job({"kind": "spectrum", "params": {"steps": 400}})
        b = validate_job({"kind": "spectrum", "params": {"steps": 800}})
        assert warm_key(a) == warm_key(b)
        assert warm_key_payload(a)["stage"] == "spectrum-gs"

    def test_scf_key_is_full_params(self):
        a = validate_job({"kind": "scf"})
        b = validate_job({"kind": "scf", "params": {"ncg": 4}})
        assert warm_key(a) != warm_key(b)

    def test_run_and_ensemble_have_no_warm_stage(self):
        for kind in ("run", "ensemble"):
            with pytest.raises(ValueError):
                warm_key(validate_job({"kind": kind}))


class TestArtifactKey:
    def test_key_structure(self):
        spec = validate_job({"kind": "ensemble"})
        key = artifact_key(spec)
        assert key.kind == "serve.ensemble"
        assert key.config == spec.config_digest
        assert key.code == kind_code_fingerprint("ensemble")
        assert key.machine == machine_fingerprint()

    def test_machine_override(self):
        spec = validate_job({"kind": "scf"})
        assert artifact_key(spec, machine="m0").machine == "m0"

    def test_kinds_have_distinct_code_fingerprints(self):
        fps = {kind_code_fingerprint(k)
               for k in ("run", "spectrum", "scf", "ensemble")}
        assert len(fps) == 4  # module lists differ per kind


def test_group_signature_orders_and_distinguishes():
    a = validate_job({"kind": "scf", "id": "a"})
    b = validate_job({"kind": "scf", "id": "b", "params": {"grid": 14}})
    assert group_signature((a, b)) != group_signature((b, a))
    assert group_signature((a,)) != group_signature((b,))
    assert group_signature((a, b)) == group_signature((a, b))
