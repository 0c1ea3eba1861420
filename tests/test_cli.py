"""CLI tests: subcommand dispatch, argument parsing, JSON schemas and exit
codes of ``python -m repro.sim`` (estimate / run / program / sweep)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import cli

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# estimate: dispatch, exit codes, back-compat
# ---------------------------------------------------------------------------

def test_bare_flags_dispatch_to_estimate(capsys):
    """The historical `python -m repro.sim --model ...` invocation still works."""
    assert cli.main(["--model", "cnn_1", "--no-per-layer"]) == 0
    out = capsys.readouterr().out
    assert "Comparison — cnn_1" in out
    assert "TIMELY" in out and "PRIME-like" in out and "ISAAC-like" in out


def test_estimate_subcommand_dispatch(capsys):
    assert cli.main(["estimate", "--model", "cnn_1", "--no-per-layer"]) == 0
    assert "Comparison — cnn_1" in capsys.readouterr().out


def test_unknown_model_exits_2_with_message(capsys):
    assert cli.main(["--model", "not_a_model"]) == 2
    err = capsys.readouterr().err
    assert "unknown model" in err and "not_a_model" in err


def test_unknown_configs_exit_2_with_message(capsys):
    assert cli.main(["--model", "cnn_1", "--configs", "timely,bogus"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "choose from" in err


def test_empty_configs_exit_2(capsys):
    assert cli.main(["--model", "cnn_1", "--configs", " , "]) == 2
    assert "choose from" in capsys.readouterr().err


def test_invalid_crossbar_geometry_exits_2(capsys):
    assert cli.main(["--model", "cnn_1", "--rows", "0"]) == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--rows", "--cols", "--weight-bits", "--input-bits"])
def test_sweep_invalid_geometry_exits_2(flag, tmp_path, capsys):
    args = ["sweep", "--model", "tiny_mlp", "--trials", "1", "--noise-grid", "0"]
    assert cli.main(args + ["--output", str(tmp_path / "r.jsonl"), flag, "0"]) == 2
    assert "invalid sweep configuration" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--weight-bits", "1"],
        ["run", "--weight-bits", "64"],
        ["run", "--weight-bits", "70"],
        ["estimate", "--weight-bits", "70"],
    ],
)
def test_unrepresentable_bit_widths_exit_2(argv, capsys):
    """Widths the integer pipeline cannot represent are configuration
    errors, not a traceback or a silently wrong run."""
    assert cli.main([*argv, "--model", "tiny_mlp"]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "configuration" in err and "bit" in err


def test_list_models_exits_0(capsys):
    assert cli.main(["--list-models"]) == 0
    out = capsys.readouterr().out
    assert "cnn_1" in out and "vgg_d" in out


# ---------------------------------------------------------------------------
# the parser tree
# ---------------------------------------------------------------------------

def test_every_subcommand_prints_help(capsys):
    """Bare --help is estimate's: argv without a command means estimate."""
    for argv, command in (
        (["--help"], "estimate"),
        (["estimate", "--help"], "estimate"),
        (["run", "--help"], "run"),
        (["program", "--help"], "program"),
        (["sweep", "--help"], "sweep"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: python -m repro.sim {command} ")


def test_subcommand_defaults_stay_apart():
    """A shared flag's per-command default does not leak into the others
    (argparse parent parsers share one action object between children)."""
    parser = cli.build_parser()
    args = {
        command: parser.parse_args([command])
        for command in ("estimate", "run", "program", "sweep")
    }
    assert args["estimate"].model == "vgg_d"
    assert args["run"].model == args["program"].model == args["sweep"].model == "cnn_1"
    assert args["program"].state_cache == ".state_cache"
    assert args["run"].state_cache is None and args["sweep"].state_cache is None


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro.sim", "--list-models"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "cnn_1" in result.stdout.split()


# ---------------------------------------------------------------------------
# estimate --json schema
# ---------------------------------------------------------------------------

def test_estimate_json_schema(capsys):
    assert cli.main(
        ["estimate", "--model", "cnn_1", "--json", "--pipelined", "--configs", "timely,prime"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "cnn_1"
    assert doc["pipelined"] is True
    assert doc["config"]["rows"] == 256
    assert [e["accelerator"] for e in doc["estimates"]] == ["TIMELY", "PRIME-like"]
    for est in doc["estimates"]:
        for key in (
            "energy_uj",
            "latency_ms",
            "pipelined_latency_ms",
            "area_mm2",
            "tops_per_watt",
            "gops",
            "pipelined_gops",
            "crossbars",
            "layers",
        ):
            assert key in est
        assert est["pipelined_latency_ms"] <= est["latency_ms"]
        assert est["layers"][0].keys() >= {"name", "kind", "crossbars", "energy_pj"}


def test_estimate_json_no_per_layer_omits_layers(capsys):
    assert cli.main(["estimate", "--model", "cnn_1", "--json", "--no-per-layer"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all("layers" not in est for est in doc["estimates"])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_json_schema(capsys):
    assert cli.main(["run", "--model", "tiny_cnn", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "tiny_cnn"
    assert doc["mode"] == "analog"
    assert doc["batch"] == 0
    assert doc["validate"] is True
    assert doc["noise_scale"] == 0.0
    assert doc["crossbars"] > 0
    assert 0.0 <= doc["rel_error"] < 0.1
    assert {trace["kind"] for trace in doc["layers"]} >= {"conv", "fc"}
    for trace in doc["layers"]:
        assert trace.keys() >= {"name", "kind", "crossbars", "rel_error"}


@pytest.mark.parametrize(
    "flags,readout,gemm_dtype",
    [
        ([], "levels", "float32"),
        (["--compute-dtype", "float32"], "levels", "float32"),
        (["--noise", "1"], "conductances", "float64"),
        (["--stuck-on", "0.01"], "conductances", "float64"),
        (["--mode", "ideal"], "ideal", "float64"),
    ],
)
def test_run_json_reports_readout_path_and_gemm_dtype(capsys, flags, readout, gemm_dtype):
    assert cli.main(["run", "--model", "tiny_cnn", "--json", *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    compute = [trace for trace in doc["layers"] if trace["kind"] in ("conv", "fc")]
    assert compute and all(trace["readout"] == readout for trace in compute)
    assert all(trace["gemm_dtype"] == gemm_dtype for trace in compute)
    aux = [trace for trace in doc["layers"] if trace["kind"] not in ("conv", "fc")]
    assert aux and all("readout" not in trace for trace in aux)


def test_run_cells_wider_than_the_weights(capsys):
    """9-bit cells hold an 8-bit weight whole: one exact-level slice."""
    assert cli.main(["run", "--model", "tiny_cnn", "--cell-bits", "9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isfinite(doc["rel_error"])
    assert {trace.get("readout") for trace in doc["layers"]} == {"levels", None}


def test_run_no_validate_omits_errors(capsys):
    assert cli.main(["run", "--model", "tiny_cnn", "--json", "--no-validate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validate"] is False
    assert doc["rel_error"] is None
    assert all(trace["rel_error"] is None for trace in doc["layers"])


def test_run_no_validate_table_output(capsys):
    assert cli.main(["run", "--model", "tiny_mlp", "--no-validate"]) == 0
    out = capsys.readouterr().out
    assert "validation skipped" in out


def test_run_batched(capsys):
    assert cli.main(["run", "--model", "tiny_cnn", "--json", "--batch", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["batch"] == 2
    assert doc["rel_error"] < 0.1


@pytest.mark.parametrize("value", ["-1", "0"])
def test_run_non_positive_batch_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--model", "tiny_cnn", "--batch", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--batch" in err and "must be a positive integer" in err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_run_non_positive_chunk_bytes_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--model", "tiny_cnn", "--chunk-bytes", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--chunk-bytes" in err and "must be a positive integer" in err


@pytest.mark.parametrize("value", ["-1", "0"])
def test_sweep_non_positive_trials_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", "--trials", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--trials" in err and "must be a positive integer" in err


def test_run_non_integer_chunk_bytes_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--model", "tiny_cnn", "--chunk-bytes", "lots"])
    assert "invalid int value" in capsys.readouterr().err


def test_run_kernel_and_chunking_reported_in_json(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert cli.main(
        ["run", "--model", "tiny_cnn", "--json", "--chunk-bytes", "65536"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kernel"] == "numpy"
    assert doc["chunk_bytes"] == 65536


def test_run_kernel_tiers_agree_bitwise(capsys, monkeypatch):
    from repro.kernels.dispatch import available

    docs = {}
    for tier in available():
        monkeypatch.setenv("REPRO_KERNEL", tier)
        assert cli.main(["run", "--model", "tiny_cnn", "--json"]) == 0
        docs[tier] = json.loads(capsys.readouterr().out)
    reference = docs["numpy"]
    for tier, doc in docs.items():
        assert doc["kernel"] == tier
        assert doc["rel_error"] == reference["rel_error"]


def test_run_rejects_unknown_kernel(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "fortran")
    assert cli.main(["run", "--model", "tiny_cnn"]) == 2
    err = capsys.readouterr().err
    assert "unknown kernel tier" in err and "fortran" in err
    assert cli.main(_sweep_args(tmp_path)) == 2
    assert "unknown kernel tier" in capsys.readouterr().err
    assert not (tmp_path / "rows.jsonl").exists()


def test_run_table_output(capsys):
    assert cli.main(["run", "--model", "tiny_mlp", "--mode", "ideal"]) == 0
    out = capsys.readouterr().out
    assert "Engine run — tiny_mlp" in out
    assert "rel. error vs float reference" in out


def test_run_with_noise_reports_higher_error(capsys):
    assert cli.main(["run", "--model", "tiny_mlp", "--json"]) == 0
    clean = json.loads(capsys.readouterr().out)
    assert cli.main(
        ["run", "--model", "tiny_mlp", "--json", "--noise", "1.0", "--noise-seed", "3"]
    ) == 0
    noisy = json.loads(capsys.readouterr().out)
    assert noisy["rel_error"] > clean["rel_error"]


def test_run_unknown_model_exits_2(capsys):
    assert cli.main(["run", "--model", "nope"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_run_branching_model_succeeds(capsys):
    """Branching topologies execute through the CLI (graph-IR engine)."""
    assert cli.main(["run", "--model", "resnet_smoke", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rel_error"] < 5e-2
    names = [layer["name"] for layer in doc["layers"]]
    assert "block1_add" in names and "block1_proj" in names


def test_run_negative_noise_exits_2(capsys):
    assert cli.main(["run", "--model", "tiny_mlp", "--noise", "-1"]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    # non-finite scales: NaN would run noiseless (and print NaN into --json),
    # inf would report a NaN rel_error
    for scale in ("nan", "inf"):
        assert cli.main(["run", "--model", "tiny_mlp", "--noise", scale, "--json"]) == 2
        captured = capsys.readouterr()
        assert "finite and non-negative" in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# program + --state-cache (program once, run many)
# ---------------------------------------------------------------------------

def test_program_json_schema_and_cache_hit(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["program", "--model", "tiny_cnn", "--state-cache", cache, "--json"]
    assert cli.main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["model"] == "tiny_cnn"
    assert first["mode"] == "analog"
    assert first["source"] == "programmed"
    assert len(first["key"]) == 16
    assert first["layers"] > 0 and first["state_mb"] > 0
    assert first["program_s"] > 0
    assert (tmp_path / "cache" / first["key"] / "meta.json").is_file()
    # the second invocation is a disk hit on the same content key
    assert cli.main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["source"] == "disk"
    assert second["key"] == first["key"]


def test_program_text_output(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cli.main(["program", "--model", "tiny_mlp", "--state-cache", cache]) == 0
    assert "programmed: tiny_mlp" in capsys.readouterr().out
    assert cli.main(["program", "--model", "tiny_mlp", "--state-cache", cache]) == 0
    assert "cache hit (disk)" in capsys.readouterr().out


def test_program_unknown_model_exits_2(tmp_path, capsys):
    assert cli.main(
        ["program", "--model", "nope", "--state-cache", str(tmp_path / "c")]
    ) == 2
    assert "unknown model" in capsys.readouterr().err


def test_run_state_cache_hit_skips_programming(tmp_path, capsys):
    """The acceptance smoke: a cache-hit run reports the hit, programs
    (nearly) nothing, and lands on the identical rel_error."""
    base = ["run", "--model", "tiny_cnn", "--json"]
    cached = base + ["--state-cache", str(tmp_path / "cache")]
    assert cli.main(base) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["programming"]["cache"] == "off"
    assert cli.main(cached) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["programming"]["cache"] == "programmed"
    assert cli.main(cached) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["programming"]["cache"] == "disk"
    assert warm["programming"]["key"] == cold["programming"]["key"]
    # identical numbers whether programmed fresh, cold-cached or cache-hit
    assert plain["rel_error"] == cold["rel_error"] == warm["rel_error"]
    assert plain["layers"] == cold["layers"] == warm["layers"]
    assert warm["program_s"] > 0 and warm["run_s"] > 0


def test_run_state_cache_mmap(tmp_path, capsys, monkeypatch):
    """Every disk hit of `run --state-cache` loads memory-mapped."""
    from repro.engine import ProgrammedState

    cached = [
        "run", "--model", "tiny_cnn", "--json",
        "--state-cache", str(tmp_path / "cache"),
    ]
    assert cli.main(cached) == 0
    cold = json.loads(capsys.readouterr().out)
    flags = []
    real_load = ProgrammedState.load.__func__

    def load(cls, path, mmap=False):
        flags.append(mmap)
        return real_load(cls, path, mmap=mmap)

    monkeypatch.setattr(ProgrammedState, "load", classmethod(load))
    assert cli.main(cached) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["programming"]["cache"] == "disk"
    assert flags == [True]
    assert warm["rel_error"] == cold["rel_error"]


@pytest.mark.parametrize("cache", ["off", "programmed", "disk"])
def test_run_json_times_add_up(tmp_path, capsys, cache):
    """program_s (float weights plus programming or the cache lookup),
    wire_s (the executor's construction) and run_s split elapsed_s."""
    args = ["run", "--model", "tiny_cnn", "--json"]
    if cache != "off":
        args += ["--state-cache", str(tmp_path / "cache")]
    if cache == "disk":
        assert cli.main(args) == 0
        capsys.readouterr()
    assert cli.main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["programming"]["cache"] == cache
    parts = (doc["program_s"], doc["wire_s"], doc["run_s"])
    assert min(parts) > 0
    assert sum(parts) == pytest.approx(doc["elapsed_s"], rel=1e-9, abs=1e-12)


def test_run_float32_hits_the_state_program_wrote(tmp_path, capsys):
    """Precision is a wiring choice: `program` takes no --compute-dtype, and
    a float32 run is a disk hit on the state it wrote, with the numbers of
    an uncached float32 run, noiseless or noisy."""
    cache = str(tmp_path / "cache")
    assert cli.main(["program", "--model", "tiny_cnn", "--state-cache", cache, "--json"]) == 0
    programmed = json.loads(capsys.readouterr().out)
    assert "compute_dtype" not in programmed
    run = ["run", "--model", "tiny_cnn", "--compute-dtype", "float32", "--json"]
    for noise in ([], ["--noise", "1"]):
        assert cli.main(run + noise) == 0
        plain = json.loads(capsys.readouterr().out)
        assert cli.main(run + noise + ["--state-cache", cache]) == 0
        cached = json.loads(capsys.readouterr().out)
        assert cached["programming"] == {"cache": "disk", "key": programmed["key"]}
        assert cached["rel_error"] == plain["rel_error"]
        assert cached["layers"] == plain["layers"]
    with pytest.raises(SystemExit):
        cli.main(["program", "--compute-dtype", "float32", "--state-cache", cache])
    capsys.readouterr()


def test_run_state_cache_table_reports_source(tmp_path, capsys):
    cached = ["run", "--model", "tiny_mlp", "--state-cache", str(tmp_path / "cache")]
    assert cli.main(cached) == 0
    assert ": programmed" in capsys.readouterr().out
    assert cli.main(cached) == 0
    assert ": disk" in capsys.readouterr().out


def test_run_compute_dtype_and_chunking(capsys):
    base = ["run", "--model", "tiny_cnn", "--json"]
    assert cli.main(base) == 0
    f64 = json.loads(capsys.readouterr().out)
    assert f64["compute_dtype"] == "float64" and f64["chunk_bytes"] is None
    assert cli.main(base + ["--compute-dtype", "float32"]) == 0
    f32 = json.loads(capsys.readouterr().out)
    assert f32["compute_dtype"] == "float32"
    # float32 stays at the same 8-bit quantisation floor
    assert f32["rel_error"] <= 1.5 * f64["rel_error"]
    assert cli.main(base + ["--chunk-bytes", "8192"]) == 0
    chunked = json.loads(capsys.readouterr().out)
    assert chunked["chunk_bytes"] == 8192
    # chunk-fused read-out agrees to float rounding; at this size exactly
    assert abs(chunked["rel_error"] - f64["rel_error"]) < 1e-9
    with pytest.raises(SystemExit):  # rejected at parse time since PR-10
        cli.main(base + ["--chunk-bytes", "-1"])
    capsys.readouterr()


def test_run_stream_matches_resident_and_bounds_wired_peak(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    base = ["run", "--model", "tiny_cnn", "--json", "--state-cache", cache]
    assert cli.main(base) == 0
    resident = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--stream"]) == 0
    streamed = json.loads(capsys.readouterr().out)
    assert streamed["stream"] and not resident["stream"]
    assert streamed["rel_error"] == resident["rel_error"]
    assert streamed["layers"] == resident["layers"]
    assert 0 < streamed["peak_wired_mb"] < resident["peak_wired_mb"]
    assert streamed["peak_rss_mb"] is None or streamed["peak_rss_mb"] > 0


def test_run_stream_streams_even_when_it_programs_cold(tmp_path, capsys):
    """--stream on a cold cache re-opens the just-written snapshot."""
    args = [
        "run", "--model", "tiny_mlp", "--json",
        "--state-cache", str(tmp_path / "cache"), "--stream",
    ]
    assert cli.main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["programming"]["cache"] == "programmed"
    assert doc["stream"] is True and doc["peak_wired_mb"] > 0


@pytest.mark.parametrize("flag", ["--stream"])
def test_run_stream_without_state_cache_exits_2(capsys, flag):
    assert cli.main(["run", "--model", "tiny_cnn", flag]) == 2
    err = capsys.readouterr().err
    assert flag in err and "--state-cache" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_args(tmp_path, *extra):
    return [
        "sweep",
        "--model",
        "tiny_cnn",
        "--noise-grid",
        "0,1",
        "--trials",
        "2",
        "--output",
        str(tmp_path / "rows.jsonl"),
        *extra,
    ]


def test_sweep_json_schema_and_monotone_errors(tmp_path, capsys):
    assert cli.main(_sweep_args(tmp_path, "--json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"]["models"] == ["tiny_cnn"]
    assert doc["grid"]["noise_scales"] == [0.0, 1.0]
    assert doc["trials"] == 4
    assert doc["computed"] == 4 and doc["skipped"] == 0
    assert doc["executed"] == 3  # the two noiseless trials share one run
    assert doc["trials_per_sec"] > 0
    scales = [entry["noise_scale"] for entry in doc["summary"]]
    errors = [entry["mean_rel_error"] for entry in doc["summary"]]
    assert scales == [0.0, 1.0]
    assert errors[0] < errors[1]
    for entry in doc["summary"]:
        assert entry.keys() >= {
            "model",
            "cell_bits",
            "trials",
            "mean_rel_error",
            "p95_rel_error",
            "max_rel_error",
            "layers",
        }
    assert (tmp_path / "rows.jsonl").is_file()


def test_sweep_resume_computes_zero(tmp_path, capsys):
    assert cli.main(_sweep_args(tmp_path, "--workers", "2", "--json")) == 0
    capsys.readouterr()
    assert cli.main(_sweep_args(tmp_path, "--resume", "--json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["computed"] == 0
    assert doc["skipped"] == 4


def test_sweep_table_output(tmp_path, capsys):
    assert cli.main(_sweep_args(tmp_path, "--per-layer")) == 0
    out = capsys.readouterr().out
    assert "Sweep — tiny_cnn" in out
    assert "mean err" in out and "p95 err" in out


def test_sweep_unknown_model_exits_2(tmp_path, capsys):
    assert cli.main(["sweep", "--model", "nope", "--output", str(tmp_path / "x")]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_sweep_invalid_noise_grid_exits_2(tmp_path, capsys):
    args = _sweep_args(tmp_path)
    args[args.index("0,1")] = "0,abc"
    assert cli.main(args) == 2
    assert "invalid sweep configuration" in capsys.readouterr().err
    args[args.index("0,abc")] = "-1"
    assert cli.main(args) == 2
    assert "invalid sweep configuration" in capsys.readouterr().err


def test_sweep_state_cache_and_timing_fields(tmp_path, capsys):
    """`sweep --state-cache` persists the programmed snapshot and the JSON
    carries the programming / pool-startup split."""
    cache = str(tmp_path / "cache")
    assert cli.main(_sweep_args(tmp_path, "--json", "--state-cache", cache)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["program_s"] > 0
    assert doc["pool_startup_s"] == 0  # single-worker sweeps run inline
    entries = list((tmp_path / "cache").iterdir())
    assert len(entries) == 1 and (entries[0] / "meta.json").is_file()


def test_sweep_compute_dtype_axis(tmp_path, capsys):
    args = _sweep_args(tmp_path, "--compute-dtype", "float64,float32", "--json")
    assert cli.main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"]["compute_dtypes"] == ["float64", "float32"]
    assert doc["trials"] == doc["computed"] == 8  # 2 dtypes x 2 scales x 2
    assert cli.main(_sweep_args(tmp_path, "--compute-dtype", "float16")) == 2
    assert "invalid sweep configuration" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fault injection + robustness flags
# ---------------------------------------------------------------------------

def test_peak_rss_degrades_to_none_without_any_source(tmp_path, monkeypatch):
    """No procfs and no getrusage → peak_rss_mb reports None, never raises."""
    import builtins

    real_import = builtins.__import__

    def no_resource(name, *args, **kwargs):
        if name == "resource":
            raise ImportError("simulated platform without resource")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_resource)
    assert cli._peak_rss_mb(status_path=str(tmp_path / "missing")) is None


def test_peak_rss_tolerates_malformed_procfs(tmp_path):
    status = tmp_path / "status"
    status.write_text("VmHWM: not-a-number\n")
    value = cli._peak_rss_mb(status_path=str(status))
    assert value is None or value > 0  # getrusage fallback where available


def test_peak_rss_parses_vmhwm(tmp_path):
    status = tmp_path / "status"
    status.write_text("VmPeak:  999 kB\nVmHWM:  2048 kB\n")
    assert cli._peak_rss_mb(status_path=str(status)) == 2048 * 1024 / 1e6


def test_run_fault_flags_report_counts(capsys):
    assert cli.main([
        "run", "--model", "tiny_cnn", "--stuck-on", "0.01", "--stuck-off",
        "0.01", "--spare-rows", "8", "--remap-threshold", "0", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["faults"]["stuck_cells"] > 0
    assert doc["faults"]["remapped_rows"] > 0
    assert doc["faults"]["spare_rows"] == 8
    assert all("stuck_cells" in layer for layer in doc["layers"])


def test_run_without_fault_flags_reports_null_faults(capsys):
    assert cli.main(["run", "--model", "tiny_cnn", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["faults"] is None
    assert "stuck_cells" not in doc["layers"][0]


def test_run_faults_degrade_accuracy(capsys):
    assert cli.main(["run", "--model", "tiny_cnn", "--json"]) == 0
    clean = json.loads(capsys.readouterr().out)
    assert cli.main([
        "run", "--model", "tiny_cnn", "--stuck-on", "0.02", "--json",
    ]) == 0
    faulted = json.loads(capsys.readouterr().out)
    assert faulted["rel_error"] > clean["rel_error"]


def test_run_invalid_fault_fraction_exits_2(capsys):
    assert cli.main(["run", "--model", "tiny_cnn", "--stuck-on", "1.5"]) == 2
    assert "stuck_on_fraction" in capsys.readouterr().err


def test_run_faults_in_ideal_mode_exit_2(capsys):
    assert cli.main([
        "run", "--model", "tiny_cnn", "--mode", "ideal", "--stuck-on", "0.01",
    ]) == 2
    assert "analog" in capsys.readouterr().err


def test_sweep_stuck_grid_and_retry_flags(tmp_path, capsys):
    assert cli.main(_sweep_args(
        tmp_path, "--noise-grid", "0", "--stuck-grid", "0,0.05",
        "--max-retries", "1", "--trial-timeout", "0", "--keep-going",
        "--rows", "64", "--cols", "64", "--json",
    )) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["grid"]["stuck_fractions"] == [0.0, 0.05]
    by_stuck = {entry["stuck_fraction"]: entry for entry in doc["summary"]}
    assert by_stuck[0.05]["mean_rel_error"] > by_stuck[0.0]["mean_rel_error"]


def test_sweep_invalid_stuck_grid_exits_2(tmp_path, capsys):
    assert cli.main(_sweep_args(tmp_path, "--stuck-grid", "2")) == 2
    assert "stuck fractions" in capsys.readouterr().err
