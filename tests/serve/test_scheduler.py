"""Batch policy validation and compatibility grouping."""

from __future__ import annotations

import pytest

from repro.serve.jobs import validate_job
from repro.serve.scheduler import BatchPolicy, group_jobs


def job(kind, **params):
    return validate_job({"kind": kind, "params": params})


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        BatchPolicy(max_batch=1)  # singleton dispatch


class TestGroupJobs:
    def test_partitions_by_compatibility(self):
        specs = [
            job("scf", grid=12),
            job("ensemble", nsteps=10, seed=1),
            job("scf", separation=1.2),
            job("ensemble", nsteps=10, seed=2),
            job("ensemble", nsteps=99),  # different physics: own group
            job("run"),
        ]
        groups = group_jobs(specs)
        shapes = [tuple(s.job_id for s in g) for g, _ in groups]
        assert shapes == [
            (specs[0].job_id, specs[2].job_id),
            (specs[1].job_id, specs[3].job_id),
            (specs[4].job_id,),
            (specs[5].job_id,),
        ]

    def test_run_jobs_always_singletons(self):
        specs = [job("run"), job("run")]
        groups = group_jobs(specs)
        assert [len(g) for g, _ in groups] == [1, 1]

    def test_carriers_travel_with_their_specs(self):
        specs = [job("scf"), job("run"), job("scf")]
        carriers = ["c0", "c1", "c2"]
        groups = group_jobs(specs, carriers)
        assert groups[0][1] == ("c0", "c2")
        assert groups[1][1] == ("c1",)
        for grp, carried in groups:
            assert len(grp) == len(carried)

    def test_carrier_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            group_jobs([job("scf")], carriers=["a", "b"])

    def test_empty_batch(self):
        assert group_jobs([]) == []

    def test_order_preserved_by_first_appearance(self):
        specs = [job("ensemble", seed=1), job("scf"), job("ensemble", seed=2)]
        groups = group_jobs(specs)
        assert groups[0][0][0].kind == "ensemble"
        assert groups[0][0][0].job_id == specs[0].job_id
        assert groups[1][0][0].kind == "scf"
