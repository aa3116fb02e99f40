"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import metzstab as ms  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTERS = ("core.eig_calls", "core.power_iters", "core.stalls", "core.dense_calls",
            "infnorm.calls", "infnorm.outer_steps", "linalg.calls", "maxnorm.evals",
            "family.greedy_calls", "family.sweeps", "sign.ball_sweeps", "lss.calls")


def _traced_counters(workload: str, seed: int, indices) -> dict:
    deck = run.Run(ms, workload, seed, rounds=2)
    tracer = spans.Tracer()
    traced = sum(deck.solve_one(i, tracer)[1] for i in indices)
    assert not deck.wrong
    summary = tracer.summary(traced, traced)
    return {name: summary[name] for name in COUNTERS}


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_same_seed_gives_byte_identical_instances(workload):
    for index in range(len(workloads.ROUNDS[workload])):
        op1, raw1 = workloads.instance(workload, 7, index, 3)
        op2, raw2 = workloads.instance(workload, 7, index, 3)
        op3, raw3 = workloads.instance(workload, 8, index, 3)
        assert op1 == op2 == op3
        assert raw1.keys() == raw2.keys()
        for key in raw1:
            assert raw1[key].tobytes() == raw2[key].tobytes()
        assert any(raw1[k].tobytes() != raw3[k].tobytes() for k in raw1)


def test_same_seed_gives_identical_counters():
    # Two sign/lss/family solves plus the d=10 l-inf ones: every counted layer.
    small = _traced_counters("reducible-small", 3, range(4))
    assert small == _traced_counters("reducible-small", 3, range(4))
    assert small["core.eig_calls"] > 0 and small["family.sweeps"] > 0
    dense = _traced_counters("linf-dense", 3, range(3))
    assert dense == _traced_counters("linf-dense", 3, range(3))
    assert dense["infnorm.outer_steps"] > 0 and dense["linalg.calls"] > 0


@pytest.mark.parametrize("op_name,params,field", [
    ("stab-inf", {"d": 10}, "tau_star"),
    ("stab-schur", {"d": 10}, "tau_star"),
    ("stab-max", {"d": 12}, "tau_star"),
    ("destab-inf", {"d": 10}, "tau_star"),
    ("destab-max", {"d": 10}, "tau_star"),
    ("stab-inf", {"d": 10}, "abscissa"),
])
def test_checker_flags_a_perturbed_result(op_name, params, field):
    op = workloads.build_ops(ms)[op_name]
    for seed in range(20):
        raw = workloads.MAKERS[op_name](np.random.default_rng(seed), 0.5, **params)
        try:
            res = op.solve(op.prepare(raw))
        except ms.MetzstabError:
            continue
        assert op.check(raw, res) is None
        value = getattr(res, field)
        bumped = dataclasses.replace(res, **{field: value + 1e-3 * max(abs(value), 1.0)})
        assert op.check(raw, bumped) is not None
        return
    pytest.fail(f"no solvable {op_name} instance in 20 seeds")


def test_checker_flags_a_sign_pattern_left_unstable():
    raw = workloads.make_sign(np.random.default_rng(0), 0.5, 4, 4)
    res = ms.closest_stable_sign(ms.SignMatrix(raw["entries"]))
    assert check.sign_stab(raw, res) is None
    unchanged = dataclasses.replace(res, sign_matrix=ms.SignMatrix(raw["entries"]))
    assert check.sign_stab(raw, unchanged) is not None


def test_wrappers_are_removed_after_a_traced_run():
    namespaces = [m for n, m in sys.modules.items()
                  if m is not None and (n == "metzstab" or n.startswith("metzstab."))]
    namespaces.append(sys.modules["numpy.linalg"])
    before = [(ns, dict(vars(ns))) for ns in namespaces]
    _traced_counters("reducible-small", 5, range(2))
    for ns, attrs in before:
        for name, value in attrs.items():
            assert getattr(ns, name) is value, f"{ns.__name__}.{name} still wrapped"


def test_exits_nonzero_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "large-dim", "--seed", "1", "--seconds", "1"]) != 0


def test_deadline_leaves_the_rest_of_the_deck_counted():
    deck = run.Run(ms, "reducible-small", 3, rounds=2)
    deck.loop(deadline=0.0)
    assert deck.solved == 1 and deck.not_run == deck.size - 1
