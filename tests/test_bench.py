import io
import time
import warnings

import pytest

from metzstab import bench, cli, gen


def test_one_row_per_grid_cell():
    rows = bench.run_bench(ops=("family-max", "family-min"), dims=(3, 4),
                           counts=(2,), trials=2, seed=7)
    assert len(rows) == 4
    for row in rows:
        assert row["iterations_mean"] >= 1.0
        assert row["iterations_max"] >= row["iterations_mean"]
        assert row["seconds_mean"] > 0.0
        assert set(row) == {"op", "dim", "count", "kind", "density_lo",
                            "density_hi", "trials", "iterations_mean",
                            "iterations_max", "seconds_mean"}


def test_same_seed_same_rows():
    kw = dict(ops=("family-min",), dims=(4,), counts=(3,), trials=3, seed=123)
    first, second = bench.run_bench(**kw), bench.run_bench(**kw)
    for a, b in zip(first, second):
        assert {k: v for k, v in a.items() if k != "seconds_mean"} \
            == {k: v for k, v in b.items() if k != "seconds_mean"}


def test_only_the_solve_is_timed(monkeypatch):
    generate = gen.generate_family

    def slow_generate(*args, **kwargs):
        time.sleep(0.05)
        return generate(*args, **kwargs)

    monkeypatch.setattr(gen, "generate_family", slow_generate)
    [row] = bench.run_bench(ops=("family-min",), dims=(3,), counts=(2,),
                            trials=2, seed=0)
    assert row["seconds_mean"] < 0.05


def test_stabilizer_ops_run():
    rows = bench.run_bench(ops=("stab-inf", "stab-schur"), dims=(3,),
                           counts=(1,), trials=2, seed=2)
    assert [row["op"] for row in rows] == ["stab-inf", "stab-schur"]
    assert all(row["iterations_mean"] >= 1.0 for row in rows)


def test_csv_output_shape():
    rows = bench.run_bench(ops=("family-min",), dims=(3,), counts=(2,),
                           trials=2, seed=0)
    buf = io.StringIO()
    bench.write_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 1 + len(rows)
    assert lines[0].startswith("op,dim,count,kind")


def test_table_lists_every_row():
    rows = bench.run_bench(ops=("family-min",), dims=(3, 4), counts=(2,),
                           trials=2, seed=0)
    text = bench.format_table(rows)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(rows)
    assert "iterations_mean" in lines[0]
    assert bench.format_table([]) == "(no results)\n"


@pytest.mark.parametrize("trials", [0, -1])
def test_a_trial_count_below_one_is_rejected(trials, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            bench.run_bench(ops=("stab-inf",), dims=(2,), trials=trials)
        assert cli.main(["bench", "--op", "stab-inf", "--dim", "2",
                         "--trials", str(trials)]) == 2
    assert capsys.readouterr().err == f"error: trials must be at least 1, got {trials}\n"
