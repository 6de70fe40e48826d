import concurrent.futures
import json
import math
import warnings

import numpy as np
import pytest

from agedelay import ServiceDistribution, engine, experiments, gginf_age, tail_decay_table
from agedelay.errors import ParameterError
from agedelay.cli import main
from agedelay.engine import parse_grid_line
from agedelay.experiments import CSV_COLUMNS, SweepConfig, csv_text, format_cell, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_csv_row(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate",
        "fcfs exp",
        "--lam", "0.5",
        "--mu", "0.8",
        "--n-arrivals", "2000",
        "--n-reps", "2",
        "--base-seed", "3",
        "--serial",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "fcfs" and cells[1] == "exp"
    assert float(cells[CSV_COLUMNS.index("avg_age")]) > 2.0


def test_simulate_json(capsys):
    docs = {}
    for discipline in ("fcfs", "lcfs-p"):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            f"{discipline} pareto alpha=2",
            "--lam", "0.5",
            "--mu", "0.8",
            "--n-arrivals", "1000",
            "--n-reps", "1",
            "--serial",
            "--json",
        )
        assert code == 0
        docs[discipline] = json.loads(out)
    assert docs["fcfs"]["discipline"] == "fcfs"
    assert docs["fcfs"]["pk_delay"] == "inf"
    # P-K is a non-preemptive formula: no value for preempt-resume LCFS
    assert docs["lcfs-p"]["discipline"] == "lcfs-p"
    assert docs["lcfs-p"]["pk_delay"] is None


def test_simulate_prints_the_one_point_suite_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "fcfs det arrival=det", "--lam", "0.5", "--mu", "0.8",
        "--n-arrivals", "2000", "--n-reps", "2", "--base-seed", "3", "--serial",
    )
    assert code == 0
    cfg = SweepConfig(
        grid=(parse_grid_line("fcfs det arrival=det", 0.8, 0.5),),
        n_arrivals=2000,
        n_reps=2,
        base_seed=3,
        warmup_fraction=0.1,
        nu_grid=(0.0,),
    )
    assert out == csv_text(run_suite(cfg, parallel=False))


def test_simulate_unstable_exits_nonzero(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "fcfs exp", "--lam", "0.9", "--mu", "0.8",
        "--n-arrivals", "100", "--serial",
    )
    assert code == 1
    assert out == ""
    assert err == "error: fcfs exp: lambda=0.9 >= mu=0.8\n"


def test_simulate_out_of_memory_exits_with_one_line(capsys, monkeypatch):
    def run_simulation(*args):
        raise MemoryError("Unable to allocate 728. TiB for an array with shape (100000000000000,)")

    monkeypatch.setattr(engine, "run_simulation", run_simulation)
    code, out, err = run_cli(
        capsys,
        "simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8",
        "--n-arrivals", "100000000000000", "--n-reps", "1", "--serial",
    )
    assert code == 1
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 728. TiB for an array with shape (100000000000000,)\n"


def test_sweep_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[arrival]\nrate = 0.5\n"
        "[service]\nrate = 0.8\n"
        "[run]\nn_arrivals = 1000\nn_reps = 1\nbase_seed = 4\nwarmup_fraction = 0.1\n"
        "[grid]\npoints =\n    fcfs exp\n    lcfs-p exp\n"
        "[scalarization]\nnu_grid = 0 1\n"
    )
    out_dir = tmp_path / "res"
    code, out, _ = run_cli(capsys, "sweep", str(cfg), "--out-dir", str(out_dir), "--serial")
    assert code == 0
    assert (out_dir / "points.csv").exists()
    assert (out_dir / "points.json").exists()
    assert (out_dir / "plot.gp").exists()
    assert len((out_dir / "points.csv").read_text().splitlines()) == 3


def test_figure1_preset_scaled_down(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    code, _, _ = run_cli(
        capsys,
        "sweep", "figure1",
        "--set", "run.n_arrivals=500",
        "--set", "run.n_reps=1",
        "--out-dir", str(out_dir),
        "--serial",
    )
    assert code == 0
    lines = (out_dir / "figure1.csv").read_text().splitlines()
    assert len(lines) == 19  # header + 18 grid points


@pytest.mark.parametrize("name", experiments.PRESETS)
def test_sweep_runs_each_preset_by_name(tmp_path, capsys, name):
    overrides = ["run.n_arrivals=2000", "run.n_reps=2"]
    sets = [arg for setting in overrides for arg in ("--set", setting)]
    code, out, err = run_cli(capsys, "sweep", name, *sets, "--out-dir", str(tmp_path / "cli"), "--serial")
    assert code == 0 and err == ""
    paths = experiments.run_and_emit(experiments.load_preset(name, overrides), tmp_path / "lib", parallel=False)
    assert out.split() == [str(tmp_path / "cli" / p.name) for p in paths]
    for p in paths:
        assert (tmp_path / "cli" / p.name).read_bytes() == p.read_bytes()


def test_sweep_of_neither_preset_nor_file_exits_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "nope", "--serial")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "nope" in err
    assert list(tmp_path.iterdir()) == []


ORACLE_HEADER = "discipline,family,shape,arrival,lambda,mu,a_min,pk_delay,gginf_age"


def oracle_point(capsys, line, lam="0.5"):
    """The one row of `oracle point LINE` at lambda=lam, mu=0.8, keyed by its header."""
    code, out, err = run_cli(capsys, "oracle", "point", line, "--lam", lam, "--mu", "0.8")
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert header == ORACLE_HEADER
    return dict(zip(header.split(","), row.split(",")))


def test_oracle_point_names_its_columns_as_the_result_row():
    assert ORACLE_HEADER.split(",") == [*experiments._COLUMNS[:6], "a_min", "pk_delay", "gginf_age"]


def test_oracle_a_min(capsys):
    assert oracle_point(capsys, "fcfs det arrival=det")["a_min"] == "1"
    assert oracle_point(capsys, "fcfs exp")["a_min"] == "2"


def test_oracle_pk_delay(capsys):
    assert oracle_point(capsys, "fcfs exp")["pk_delay"] == "3.33333333333"
    assert oracle_point(capsys, "lcfs-np pareto alpha=2")["pk_delay"] == "inf"
    # P-K is a non-preemptive formula under Poisson arrivals: no value otherwise
    assert oracle_point(capsys, "lcfs-p exp")["pk_delay"] == ""
    assert oracle_point(capsys, "fcfs exp arrival=det")["pk_delay"] == ""


def test_oracle_dd1_age(capsys):
    # with periodic arrivals and deterministic service below capacity no packet waits:
    # the age is the infinite-server age 1/(2 lambda) + 1/mu, in closed form
    code, out, _ = run_cli(capsys, "oracle", "point", "fcfs det arrival=det", "--lam", "0.5", "--mu", "0.8")
    assert code == 0
    assert out == f"{ORACLE_HEADER}\nfcfs,det,,det,0.5,0.8,1,,2.25\n"


def test_oracle_gginf(capsys):
    assert oracle_point(capsys, "inf det arrival=det")["gginf_age"] == "2.25"
    assert oracle_point(capsys, "inf det")["gginf_age"] == "3.25"  # 1/lambda + 1/mu
    row = oracle_point(capsys, "lcfs-p pareto alpha=2")
    point = parse_grid_line("lcfs-p pareto alpha=2", 0.8, 0.5)
    assert row["gginf_age"] == format_cell(gginf_age(point.arrival, point.service))
    # the cell is exact, so no seed option is left to take
    with pytest.raises(SystemExit):
        main(["oracle", "point", "inf exp", "--lam", "0.5", "--mu", "0.8", "--seed", "1"])


@pytest.mark.parametrize(
    "line,lam",
    [("inf det", "10000"), ("inf exp", "1e10")],
    ids=["inf-det-lambda-1e4", "inf-exp-lambda-1e10"],
)
def test_oracle_gginf_at_large_lambda_over_mu(capsys, line, lam):
    # large lambda/mu: an estimator drawing about lambda/mu rounds per sample would take minutes here
    cell = float(oracle_point(capsys, line, lam)["gginf_age"])
    # Jensen: 1/lambda <= gginf_age <= 1/lambda + 1/mu, with equality on the right for det
    assert 1 / float(lam) <= cell <= 1 / float(lam) + 1.25
    if line == "inf det":
        assert cell == 1.2501


@pytest.mark.parametrize(
    "line",
    ["fcfs exp", "lcfs-np pareto alpha=2", "lcfs-p lognormal sigma=1", "inf weibull k=0.5", "fcfs det arrival=det"],
)
def test_oracle_point_cells_are_the_simulated_rows(capsys, line):
    base_seed, n_reps = 7, 2
    oracle = oracle_point(capsys, line)
    code, out, _ = run_cli(
        capsys,
        "simulate", line, "--lam", "0.5", "--mu", "0.8", "--n-arrivals", "2000",
        "--n-reps", str(n_reps), "--base-seed", str(base_seed), "--serial",
    )
    assert code == 0
    header, row = out.splitlines()
    simulated = dict(zip(header.split(","), row.split(",")))
    shared = [name for name in ORACLE_HEADER.split(",") if name in simulated]
    assert shared == [name for name in CSV_COLUMNS if name in oracle]
    assert len(shared) == len(oracle) == 9
    assert {name: oracle[name] for name in shared} == {name: simulated[name] for name in shared}


def test_oracle_tail_table(capsys):
    code, out, err = run_cli(
        capsys,
        "oracle", "tail-table",
        "--family", "pareto", "--shapes", "2,1.5",
        "--xs", "2,4", "--mu", "0.8", "--lam", "0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,shape,second_moment,x,tail_prob,truncated_mean"
    assert len(lines) == 5
    # E[S^2] is infinite at alpha=2; P(S>4) rises from alpha=2 to 1.5
    assert err == "# second_moment_diverging=True columns_decreasing=False\n"
    code, out, err = run_cli(
        capsys, "oracle", "tail-table", "--family", "exp", "--xs", "2", "--mu", "0.8", "--lam", "0.5"
    )
    assert code == 0
    # 2/mu^2, exp(-1.6) and (1 - exp(-1.6)) / 0.8 - 2 exp(-1.6), to 12 significant digits
    assert out == "family,shape,second_moment,x,tail_prob,truncated_mean\nexp,,3.125,2,0.201896517995,0.593836316517\n"
    assert err == "# second_moment_diverging=False columns_decreasing=False\n"


@pytest.mark.parametrize(
    "alias,name,shapes",
    [
        ("Exponential", "exp", ""),
        ("EXP", "exp", ""),
        ("deterministic", "det", ""),
        ("Pareto", "pareto", "2,1.5"),
        ("DeTeRmInIsTiC", "det", ""),
        ("wEiBuLl", "weibull", "1,0.5"),
    ],
)
def test_tail_table_takes_the_family_names_a_grid_line_takes(capsys, alias, name, shapes):
    # the family column prints the canonical name, so an alias gives the canonical name's bytes
    argv = ("--shapes", shapes, "--xs", "2", "--mu", "0.8", "--lam", "0.5")
    assert run_cli(capsys, "oracle", "tail-table", "--family", alias, *argv) == run_cli(
        capsys, "oracle", "tail-table", "--family", name, *argv
    )
    grid = experiments.parse_number_list(shapes) if shapes else []
    tables = (tail_decay_table(family, grid, [2.0], 0.8, 0.5) for family in (alias, name))
    assert all(np.array_equal(got, want) for got, want in zip(*tables))
    # a grid line with the alias reads back as the canonical name's point, law and label
    spec = ServiceDistribution(name, 0.8, grid[0] if grid else None).label()
    point = parse_grid_line(f"fcfs {spec.replace(name, alias, 1)}", 0.8, 0.5)
    assert point == parse_grid_line(f"fcfs {spec}", 0.8, 0.5)
    assert point.label() == f"fcfs {spec}"


def test_an_unknown_family_gets_one_refusal_from_every_reader(capsys):
    rates = ("--lam", "0.5", "--mu", "0.8")
    for argv in (
        ("simulate", "fcfs foo", *rates, "--serial"),
        ("oracle", "point", "fcfs foo", *rates),
        ("oracle", "tail-table", "--family", "foo", "--xs", "2", *rates),
    ):
        assert run_cli(capsys, *argv) == (1, "", "error: unknown distribution family 'foo'\n")
    with pytest.raises(ParameterError, match="^unknown distribution family 'foo'$"):
        tail_decay_table("foo", [], [2.0], 0.8, 0.5)


def test_a_malformed_number_list_gets_one_message_from_the_cli_and_a_config(capsys):
    refusal = (1, "", "error: expected a list of numbers, got '2, x'\n")
    rates = ("--lam", "0.5", "--mu", "0.8")
    for lists in (("--shapes", "2, x", "--xs", "2"), ("--xs", "2, x")):
        assert run_cli(capsys, "oracle", "tail-table", "--family", "pareto", *lists, *rates) == refusal
    assert run_cli(capsys, "sweep", "figure1", "--set", "scalarization.nu_grid=2, x", "--serial") == refusal


@pytest.mark.parametrize(
    "argv,cell,note",
    [
        (("oracle", "point", "inf lognormal sigma=1e-310 arrival=det", "--lam", "0.5", "--mu", "0.8"), "2.25", ""),
        (
            ("oracle", "tail-table", "--family", "lognormal", "--shapes", "1e-310", "--xs", "10", "--mu", "0.8", "--lam", "0.5"),
            "1.25",
            "# second_moment_diverging=False columns_decreasing=False\n",
        ),
    ],
    ids=["point", "tail-table"],
)
def test_overflow_to_the_exact_limit_writes_no_warning(capsys, argv, cell, note):
    # at sigma=1e-310, (log x - m) / sigma overflows to an infinity whose erfc is the exact tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].split(",")[-1] == cell
    assert err == note


def test_oracle_tail_table_weibull_large_k(capsys):
    # (x / beta)^k overflows at k = 700: the tail and truncated mean take their exact limits
    code, out, _ = run_cli(
        capsys,
        "oracle", "tail-table", "--family", "weibull", "--shapes", "700,1",
        "--xs", "4", "--mu", "0.8", "--lam", "0.5",
    )
    assert code == 0
    m2 = math.gamma(1 + 2 / 700) / math.gamma(1 + 1 / 700) ** 2 / 0.64
    assert out.splitlines()[1] == f"weibull,700,{m2:.12g},4,0,1.25"
    assert all(math.isfinite(float(cell)) for line in out.splitlines()[1:] for cell in line.split(",")[1:])


def test_oracle_moment_table(capsys):
    # the second_moment column of tail-table: one cell per shape, repeated on each x row
    code, out, err = run_cli(
        capsys,
        "oracle", "tail-table", "--family", "pareto", "--shapes", "3,2.5,2",
        "--xs", "2", "--mu", "0.8", "--lam", "0.5",
    )
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["2.08333333333", "2.8125", "inf"]
    assert "second_moment_diverging=True" in err


def test_oracle_moment_table_weibull_small_k(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", "tail-table", "--family", "weibull", "--shapes", "1,0.5,0.01",
        "--xs", "4", "--mu", "0.8", "--lam", "0.5",
    )
    assert code == 0
    # E[S^2] = Gamma(1+2/k) / (Gamma(1+1/k)^2 mu^2) = C(200, 100) / 0.64 at k = 0.01
    last = out.splitlines()[-1].split(",")
    assert last[:3] == ["weibull", "0.01", f"{math.comb(200, 100) / 0.64:.12g}"]
    assert last[2] == "1.4148205415e+59"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("simulate", "fcfs exp", "--lam", "1e-300", "--mu", "0.8", "--serial"), "lambda=1e-300"),
        (("oracle", "point", "fcfs det arrival=det", "--lam", "1e-160", "--mu", "0.8"), "lambda=1e-160"),
        (("oracle", "point", "fcfs exp", "--lam", "0.5", "--mu", "1e-160"), "mu=1e-160 is too small"),
        (
            ("simulate", "fcfs pareto alpha=1.5 alpha=2", "--lam", "0.5", "--mu", "0.8", "--serial"),
            "repeated key 'alpha'",
        ),
        # 1e-320 is subnormal and prints as 9.99989e-321
        (
            ("oracle", "point", "fcfs det arrival=det", "--lam", "1e-320", "--mu", "0.8"),
            "lambda=9.99989e-321 is too small",
        ),
        (("oracle", "point", "fcfs exp", "--lam", "1e-320", "--mu", "0.8"), "lambda=9.99989e-321 is too small"),
        (
            ("oracle", "tail-table", "--family", "exp", "--xs", "4,inf", "--mu", "0.8", "--lam", "0.5"),
            "got inf",
        ),
        (("simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8", "--base-seed", "-1", "--serial"), "seed"),
        (("sweep", "figure1", "--set", "run.base_seed=-5", "--set", "run.n_arrivals=1000", "--serial"), "seed"),
        (("sweep", "figure1", "--set", "scalarization.nu_grid=0 inf", "--serial"), "nu_grid"),
        (("sweep", "figure1", "--set", "run.n_arrivals=1000", "--set", "run.n_arival=100", "--serial"), "run.n_arival"),
        (("sweep", "figure1", "--set", "run.n_arrivals=1000", "--set", "rn.n_reps=1", "--serial"), "rn.n_reps"),
        (
            ("sweep", "figure1", "--set", "run.n_arrivals=1000", "--set", "output.csv=figure1.json", "--serial"),
            "must differ",
        ),
        (
            ("sweep", "figure1", "--set", "run.n_arrivals=1000", "--set", "scalarization.nu_grid=1 1", "--serial"),
            "weight 1",
        ),
        (
            ("sweep", "figure1", "--set", "run.n_arrivals=1000", "--set", "arrival.family=exp", "--serial"),
            "arrival.family",
        ),
        (
            (
                "sweep", "figure1", "--set", "run.n_arrivals=1000", "--serial", "--set",
                "grid.points=fcfs exp\nlcfs-p pareto alpha=1.5\nfcfs exponential\nlcfs-p pareto alpha=1.50",
            ),
            "repeats point fcfs exp, lcfs-p pareto alpha=1.5",
        ),
        (("simulate", "fcfs exp", "--lam", "0.9", "--mu", "0.8", "--serial"), "fcfs exp: lambda=0.9 >= mu=0.8"),
        (("sweep", "figure1", "--set", "arrival.rate=0.9", "--serial"), "fcfs det: lambda=0.9 >= mu=0.8"),
        # past (sys.maxsize // 8 - 1) // 3 no run's draw of 3 n_arrivals + 1 float64s exists; numpy would raise
        # ValueError
        (
            ("simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8", "--n-arrivals", str(10**20), "--serial"),
            "n_arrivals=100000000000000000000 exceeds",
        ),
        (
            ("simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8", "--n-arrivals", str(2**60), "--serial"),
            "n_arrivals=1152921504606846976 exceeds",
        ),
        (
            ("simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8", "--n-arrivals", str(2**59), "--serial"),
            "n_arrivals=576460752303423488 exceeds 384307168202282324",
        ),
        (
            ("simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8", "--n-arrivals", str(2**59 - 1), "--serial"),
            "n_arrivals=576460752303423487 exceeds 384307168202282324",
        ),
        # the largest size check_run admits reaches the draw; numpy refuses its 8 EiB at once
        (
            ("simulate", "fcfs exp", "--lam", "0.5", "--mu", "0.8", "--n-arrivals", "384307168202282324", "--serial"),
            "error: out of memory",
        ),
        (
            ("sweep", "figure1", "--set", f"run.n_arrivals={10**20}", "--set", "run.n_reps=1", "--serial"),
            "n_arrivals=100000000000000000000 exceeds",
        ),
        (
            ("sweep", "figure1", "--set", f"run.n_arrivals={2**60}", "--set", "run.n_reps=1", "--serial"),
            "n_arrivals=1152921504606846976 exceeds",
        ),
        (
            ("sweep", "figure1", "--set", f"run.n_arrivals={2**59}", "--set", "run.n_reps=1", "--serial"),
            "n_arrivals=576460752303423488 exceeds 384307168202282324",
        ),
        (
            ("oracle", "tail-table", "--family", "exp", "--xs", "2", "--mu", "1e300", "--lam", "0.5"),
            "mu=1e+300 is too large",
        ),
        # the slack under 1/lambda is relative: an absolute 1e-12 would pass any x at lambda=1e12
        (
            ("oracle", "tail-table", "--family", "exp", "--xs", "1e-20", "--mu", "2e12", "--lam", "1e12"),
            "must be >= 1/lambda = 1e-12, got [1e-20]",
        ),
        (("simulate", "inf exp", "--lam", "1e300", "--mu", "0.8", "--serial"), "lambda=1e+300 is too large"),
        (
            ("oracle", "point", "inf exp arrival=det", "--lam", "1e10", "--mu", "0.8"),
            "lambda=1e+10, mu=0.8 needs more than 10000 terms",
        ),
        # past eps * t_b > 1e-6 E[S], recv - gen rounds: these printed mean_delay 0 and 0.414, not 1.25 and 1.2557
        (
            (
                "simulate", "inf exp", "--lam", "1e-100", "--mu", "0.8", "--n-arrivals", "2000", "--n-reps", "2",
                "--serial",
            ),
            "lambda=1e-100, mu=0.8, n_arrivals=2000 are lost to rounding",
        ),
        (
            (
                "simulate", "fcfs exp", "--lam", "1e-12", "--mu", "0.8", "--n-arrivals", "100000", "--n-reps", "2",
                "--serial",
            ),
            "lambda=1e-12, mu=0.8, n_arrivals=100000 are lost to rounding",
        ),
        (
            (
                "sweep", "figure1", "--set", "arrival.rate=1e-12", "--set", "run.n_arrivals=2000",
                "--set", "run.n_reps=2", "--serial",
            ),
            "lambda=1e-12, mu=0.8, n_arrivals=2000 are lost to rounding",
        ),
        # every service drawn is below 1e-57, far under E[S] = 1.25: this printed each delay column as 0.0
        (
            (
                "simulate", "fcfs weibull k=0.01", "--lam", "0.5", "--mu", "0.8", "--n-arrivals", "20000",
                "--n-reps", "2", "--serial", "--json",
            ),
            "are lost to rounding",
        ),
        (("simulate", "fcfs pareto", "--lam", "0.5", "--mu", "0.8", "--serial"), "requires exactly alpha"),
        (("sweep", "nope.ini"), "cannot read config nope.ini"),
        (("simulate", "fcfs weibull k=0.004", "--lam", "0.5", "--mu", "0.8", "--serial"), "weibull k=0.004 is too small"),
        (
            (
                "oracle", "tail-table", "--family", "weibull", "--shapes", "1,0.5,0.004",
                "--xs", "4", "--mu", "0.8", "--lam", "0.5",
            ),
            "weibull k=0.004 is too small",
        ),
        # sigma^2 overflows at sigma = 1e200
        (
            (
                "oracle", "tail-table", "--family", "lognormal", "--shapes", "1,1e10,1e200",
                "--xs", "2", "--mu", "0.8", "--lam", "0.5",
            ),
            "lognormal sigma=1e+200 is too large",
        ),
        (
            ("oracle", "tail-table", "--family", "pareto", "--shapes", "2,1.5", "--xs", "1", "--mu", "0.8", "--lam", "0.5"),
            "must be >= 1/lambda = 2.0, got [1.0]",
        ),
        (
            ("oracle", "tail-table", "--family", "pareto", "--shapes", "2", "--xs", "abc", "--mu", "0.8", "--lam", "0.5"),
            "expected a list of numbers, got 'abc'",
        ),
        # the age area grows as t_b^2 ~ (n_arrivals / lambda)^2, past the double range here
        (
            (
                "simulate", "fcfs exp", "--lam", "1.6e-154", "--mu", "3e-154", "--n-arrivals", "3000", "--n-reps", "1",
                "--serial", "--json",
            ),
            "results at lambda=1.6e-154, mu=3e-154, n_arrivals=3000 leave the double range",
        ),
        (("simulate", "fcfs", "--lam", "0.5", "--mu", "0.8", "--serial"), "grid line needs"),
        (("simulate", "fcfs foo", "--lam", "0.5", "--mu", "0.8", "--serial"), "unknown distribution family 'foo'"),
        (("simulate", "fcfs pareto alpha", "--lam", "0.5", "--mu", "0.8", "--serial"), "expected key=value"),
        (
            ("oracle", "tail-table", "--family", "pareto", "--xs", "", "--lam", "0.5", "--mu", "0.8"),
            "expected a list of numbers, got ''",
        ),
        (("oracle", "point", "fcfs exp", "--lam", "inf", "--mu", "0.8"), "lambda must be positive and finite, got inf"),
        (("oracle", "point", "fcfs exp", "--lam", "0.5", "--mu", "nan"), "mu must be positive and finite, got nan"),
        (("sweep", "figure1", "--set", "DEFAULT.csv=x.csv", "--serial"), "error: unknown config keys: DEFAULT.csv\n"),
    ],
    ids=[
        "tiny-lambda-simulate",
        "tiny-lambda-a-min",
        "tiny-mu",
        "repeated-service-key",
        "tiny-lambda-dd1-age",
        "tiny-lambda-pk-delay",
        "infinite-threshold",
        "negative-simulate-seed",
        "negative-config-seed",
        "infinite-weight",
        "misspelt-key",
        "misspelt-section",
        "repeated-output-name",
        "repeated-weight",
        "removed-arrival-family",
        "repeated-grid-point",
        "unstable-simulate",
        "unstable-sweep",
        "n-arrivals-10^20-simulate",
        "n-arrivals-2^60-simulate",
        "n-arrivals-2^59-simulate",
        "n-arrivals-2^59-1-simulate",
        "n-arrivals-cap-simulate",
        "n-arrivals-10^20-sweep",
        "n-arrivals-2^60-sweep",
        "n-arrivals-2^59-sweep",
        "huge-mu-tail-table",
        "tiny-x-under-tiny-inverse-lambda",
        "huge-lambda-simulate",
        "periodic-gginf-past-its-terms",
        "inf-delays-lost-to-rounding",
        "fcfs-delays-lost-to-rounding",
        "sweep-delays-lost-to-rounding",
        "weibull-delays-lost-to-rounding",
        "service-without-its-shape",
        "missing-config",
        "weibull-k-past-double-range-simulate",
        "weibull-k-past-double-range-tail-table",
        "lognormal-sigma-past-double-range",
        "x-under-inverse-lambda",
        "non-numeric-list",
        "age-area-past-double-range",
        "grid-line-without-service",
        "unknown-service-family",
        "service-shape-without-value",
        "empty-threshold-list",
        "infinite-lambda",
        "nan-mu",
        "default-section-override",
    ],
)
def test_bad_input_exits_with_one_line(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and fragment in err


@pytest.mark.parametrize("lam,mu", [("1e-81", "1e-80"), ("1e100", "1e101"), ("1e-150", "1e-149")])
def test_simulate_far_from_unit_rates_scales_the_unit_rate_row(capsys, lam, mu):
    # every time scales as 1/mu; the squared delay variances of the replications overflow at 1e-81 and 1e-150
    # and underflow at 1e100, and their halfwidth must not
    def columns(lam, mu):
        argv = ("--n-arrivals", "3000", "--n-reps", "3", "--serial", "--json")
        code, out, err = run_cli(capsys, "simulate", "fcfs exp", "--lam", lam, "--mu", mu, *argv)
        assert code == 0 and err == ""
        doc = json.loads(out)
        names = ("avg_age", "avg_age_ci", "mean_delay", "mean_delay_ci", "delay_var", "delay_var_ci")
        return [doc[name] * doc["mu"] ** (2 if name.startswith("delay_var") else 1) for name in names]

    assert columns(lam, mu) == pytest.approx(columns("0.1", "1"), rel=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "lcfs-np exp arrival=det", "--lam", "0.8", "--mu", "0.8"),
        ("sweep", "figure1", "--set", "arrival.rate=0.8"),
    ],
    ids=["simulate", "sweep"],
)
def test_unstable_line_fails_before_any_replication(capsys, monkeypatch, argv):
    def run_simulation(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(engine, "run_simulation", run_simulation)
    code, out, err = run_cli(capsys, *argv, "--serial")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.endswith(": lambda=0.8 >= mu=0.8\n")


@pytest.mark.parametrize(
    "setting,fragment",
    [
        ("run.n_arrivals=0", "n_arrivals"),
        ("run.n_arrivals=1", "n_arrivals"),
        ("run.base_seed=-1", "seed"),
        ("run.warmup_fraction=0.9", "warmup_fraction"),
        ("run.n_reps=0", "n_reps"),
        (f"run.n_arrivals={2**60}", "n_arrivals"),
        # an output name that is not a bare file name would fail after the run or write outside --out-dir
        ("output.plot=..", "got '..'"),
        ("output.csv=sub/x.csv", "sub/x.csv"),
        ("output.csv=", "got ''"),
        ("output.csv=/tmp/abs.csv", "/tmp/abs.csv"),
    ],
)
def test_bad_suite_never_starts_a_pool(capsys, monkeypatch, setting, fragment):
    # the suite is checked when it is built, so no worker ever sees it
    def pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    # run_suite imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    with pytest.raises(ParameterError, match=fragment):
        experiments.load_preset("figure1", [setting])
    code, out, err = run_cli(capsys, "sweep", "figure1", "--set", setting)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and fragment in err


def test_simulate_refuses_a_window_without_age_drops(capsys):
    # 2000 packets in 2e-9 time units, each served for about 1.25: every age drop comes in the drain,
    # and the summary would report the ramp from (0, 0), 1.1e-9 against the exact 1.4e-6
    code, out, err = run_cli(
        capsys,
        "simulate", "inf exp", "--lam", "1e12", "--mu", "0.8", "--n-arrivals", "2000", "--n-reps", "2", "--serial",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: metrics window") and "holds 0" in err


@pytest.mark.parametrize("serial", [True, False], ids=["serial", "pooled"])
@pytest.mark.parametrize(
    "suite, setting",
    [("figure1", "run.n_arrivals=20"), ("inf.ini", "arrival.rate=1e12")],
    ids=["figure1-20-arrivals", "inf-lambda-1e12"],
)
def test_sweep_refuses_a_window_without_enough_age_drops_before_any_output(
    tmp_path, capsys, pool_sizes, suite, setting, serial
):
    if suite == "inf.ini":
        suite = tmp_path / "inf.ini"
        suite.write_text(
            "[arrival]\nrate = 0.5\n"
            "[service]\nrate = 0.8\n"
            "[run]\nn_arrivals = 2000\nn_reps = 2\nbase_seed = 4\nwarmup_fraction = 0.1\n"
            "[grid]\npoints =\n    inf exp\n    inf det\n"
            "[scalarization]\nnu_grid = 0\n"
        )
    out_dir = tmp_path / "out"
    argv = ("sweep", str(suite), "--set", setting, "--out-dir", str(out_dir)) + (("--serial",) if serial else ())
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: metrics window") and "age drops" in err
    assert not out_dir.exists()
    # pooled, the error is raised in a worker and carried back through the pool
    assert pool_sizes == ([] if serial else [2])


@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_sweep_refuses_an_out_dir_that_is_not_a_directory_before_any_replication(
    tmp_path, capsys, monkeypatch, under
):
    def run_simulation(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(engine, "run_simulation", run_simulation)
    blocker = tmp_path / "results"
    blocker.write_text("kept\n")
    out_dir = blocker / under
    code, out, err = run_cli(capsys, "sweep", "figure1", "--out-dir", str(out_dir), "--serial")
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write results under {out_dir}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"


def test_grid_line_with_repeated_arrival_exits_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[arrival]\nrate = 0.5\n"
        "[service]\nrate = 0.8\n"
        "[run]\nn_arrivals = 1000\nn_reps = 1\nbase_seed = 4\nwarmup_fraction = 0.1\n"
        "[grid]\npoints =\n    fcfs det arrival=det arrival=exp\n"
        "[scalarization]\nnu_grid = 0\n"
    )
    code, out, err = run_cli(capsys, "sweep", str(cfg), "--out-dir", str(tmp_path), "--serial")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "repeated key 'arrival'" in err


def test_stability_error_on_oracle(capsys):
    code, out, err = run_cli(capsys, "oracle", "point", "fcfs exp", "--lam", "0.9", "--mu", "0.8")
    assert code == 1
    assert out == ""
    assert err == "error: fcfs exp: lambda=0.9 >= mu=0.8\n"
