"""Invariant-checker self-tests: per-rule fixtures (violating + conforming),
CLI text/JSON/exit codes, baseline suppress-then-regress, inline allows, the
live-src meta-test (the fixed tree is finding-free), and the self-updating
content-key test (a dummy field added to a copy of SimContext must be
reported)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import load_baseline, run_analysis, write_baseline
from repro.analysis.__main__ import main
from repro.analysis.rules import ALL_RULES, RULES_BY_NAME

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _findings(*paths, rules=None):
    return run_analysis([str(p) for p in paths], rules=rules).findings


def _rule(name):
    return [RULES_BY_NAME[name]]


# -- rule registry ------------------------------------------------------------


def test_registry_names_are_unique_and_described():
    names = [rule.name for rule in ALL_RULES]
    assert len(names) == len(set(names))
    assert all(rule.name and rule.description for rule in ALL_RULES)
    assert set(names) == {
        "rng-discipline",
        "content-key-completeness",
        "pool-picklability",
        "layout-discipline",
        "kernel-dispatch",
    }


# -- rng-discipline -----------------------------------------------------------


def test_rng_bad_fixture_flags_every_construction():
    findings = _findings(FIXTURES / "rng_bad.py", rules=_rule("rng-discipline"))
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 5
    assert all(f.rule == "rng-discipline" for f in findings)
    assert "bare integer seed (0)" in messages
    assert "without a seed draws OS entropy" in messages
    assert "numpy.random.seed" in messages
    assert "numpy.random.normal" in messages
    assert "underived seed expression (seed)" in messages


def test_rng_good_fixture_is_clean():
    assert _findings(FIXTURES / "rng_good.py", rules=_rule("rng-discipline")) == []


def test_rng_findings_carry_locations():
    findings = _findings(FIXTURES / "rng_bad.py", rules=_rule("rng-discipline"))
    text = (FIXTURES / "rng_bad.py").read_text().splitlines()
    for finding in findings:
        assert finding.path == "rng_bad.py"
        assert "random" in text[finding.line - 1]


# -- layout-discipline --------------------------------------------------------


def test_layout_bad_fixture_flags_copies_and_casts():
    findings = _findings(FIXTURES / "layout_bad.py", rules=_rule("layout-discipline"))
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 7
    assert "np.ascontiguousarray on packed payload 'encoded'" in messages
    assert "astype on packed payload '_encoded'" in messages
    assert "dtype-narrowing cast to float32 on 'products'" in messages
    assert 'order="C" forces a fixed layout' in messages
    assert "np.ascontiguousarray on packed payload 'levels'" in messages
    assert "astype on packed payload 'levels'" in messages
    assert "dtype-narrowing cast to float32 on 'levels'" in messages


def test_layout_good_fixture_is_clean():
    assert _findings(FIXTURES / "layout_good.py", rules=_rule("layout-discipline")) == []


# -- pool-picklability --------------------------------------------------------


def test_pool_bad_fixture_flags_mutable_spec_lambda_and_closure():
    findings = _findings(FIXTURES / "pool_bad.py", rules=_rule("pool-picklability"))
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 3
    assert "MutableSpec" in messages and "not a frozen dataclass" in messages
    assert "lambda shipped across the process boundary" in messages
    assert "nested function 'closure'" in messages


def test_pool_good_fixture_is_clean():
    assert _findings(FIXTURES / "pool_good.py", rules=_rule("pool-picklability")) == []


# -- kernel-dispatch ----------------------------------------------------------


def test_kernel_dispatch_bad_fixture_flags_every_import_form():
    findings = _findings(
        FIXTURES / "kernel_dispatch_bad.py", rules=_rule("kernel-dispatch")
    )
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 3
    assert all(f.rule == "kernel-dispatch" for f in findings)
    assert messages.count("repro.kernels.c_impl") == 2
    assert "repro.kernels.numpy_impl" in messages
    assert "repro.kernels.dispatch" in messages  # the remedy is named


def test_kernel_dispatch_good_fixture_is_clean():
    assert (
        _findings(
            FIXTURES / "kernel_dispatch_good.py", rules=_rule("kernel-dispatch")
        )
        == []
    )


def test_kernel_dispatch_exempts_the_kernels_package_itself():
    kernels = SRC / "repro" / "kernels"
    findings = run_analysis([str(SRC)], rules=_rule("kernel-dispatch")).findings
    assert findings == []
    # sanity: the dispatcher really does import its tiers, so the absence of
    # findings proves the exemption (not an accidentally-empty package)
    assert "numpy_impl" in (kernels / "dispatch.py").read_text()


# -- content-key-completeness -------------------------------------------------


def test_content_keys_bad_fixture_flags_missing_fields():
    findings = _findings(
        FIXTURES / "content_keys_bad.py", rules=_rule("content-key-completeness")
    )
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 2
    assert "ArchSpec.v_span is absent from state_key()" in messages
    assert "TrialSpec.gain is absent from the sweep _group_key" in messages
    # compare=False auto-exempts spare_rows
    assert "spare_rows" not in messages


def test_content_keys_good_fixture_is_clean():
    assert (
        _findings(
            FIXTURES / "content_keys_good.py", rules=_rule("content-key-completeness")
        )
        == []
    )


def test_content_key_rule_is_self_updating(tmp_path):
    """A dummy field added to a copy of SimContext must be reported.

    This is the PR-7 ``compute_dtype`` scenario replayed: a new numeric knob
    that nobody threads into ``state_key`` aliases cached states — the rule
    has to catch the *next* one automatically.
    """
    context_copy = tmp_path / "context.py"
    state_copy = tmp_path / "state.py"
    shutil.copy(SRC / "repro" / "context.py", context_copy)
    shutil.copy(SRC / "repro" / "engine" / "state.py", state_copy)

    # the unmodified copies are clean
    assert (
        _findings(context_copy, state_copy, rules=_rule("content-key-completeness"))
        == []
    )

    marker = "    seed: int = 0\n"
    text = context_copy.read_text()
    assert text.count(marker) == 1
    context_copy.write_text(
        text.replace(marker, marker + "    psi_gain: float = 1.0\n", 1)
    )
    findings = _findings(
        context_copy, state_copy, rules=_rule("content-key-completeness")
    )
    assert len(findings) == 1
    assert "SimContext.psi_gain is absent from state_key()" in findings[0].message


# -- live tree meta-test ------------------------------------------------------


def test_live_src_tree_is_finding_free():
    report = run_analysis([str(SRC)])
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.files > 40


def test_prefix_regression_would_be_caught(tmp_path):
    """The checker still catches this PR's own true positives if reintroduced."""
    bench = tmp_path / "bench.py"
    bench.write_text(
        "import numpy as np\n"
        "xi = np.random.default_rng(0).normal(size=(3, 224, 224))\n"
    )
    packed = tmp_path / "packed.py"
    packed.write_text(
        "import numpy as np\n"
        "def f(grouped, self):\n"
        "    return grouped @ self._encoded.astype(np.int64)\n"
    )
    findings = _findings(bench, packed)
    rules = {f.rule for f in findings}
    assert rules == {"rng-discipline", "layout-discipline"}


# -- suppression: inline allows and baselines ---------------------------------


def test_inline_allow_suppresses_with_reason(tmp_path):
    bad = tmp_path / "allowed.py"
    bad.write_text(
        "import numpy as np\n"
        "r = np.random.default_rng(0)  # analysis: allow=rng-discipline -- demo\n"
    )
    report = run_analysis([str(bad)])
    assert report.findings == []
    assert report.suppressed == 1


def test_inline_allow_is_rule_specific(tmp_path):
    bad = tmp_path / "allowed.py"
    bad.write_text(
        "import numpy as np\n"
        "r = np.random.default_rng(0)  # analysis: allow=layout-discipline\n"
    )
    report = run_analysis([str(bad)])
    assert len(report.findings) == 1


def test_baseline_suppress_then_regress(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    report = run_analysis([str(FIXTURES / "rng_bad.py")])
    assert report.findings
    write_baseline(baseline_path, report.findings)

    # all grandfathered findings are suppressed
    suppressed = run_analysis(
        [str(FIXTURES / "rng_bad.py")], baseline=load_baseline(baseline_path)
    )
    assert suppressed.findings == []
    assert suppressed.baselined == len(report.findings)

    # ...but a *new* violation still fails
    regressed = tmp_path / "rng_bad.py"
    regressed.write_text(
        (FIXTURES / "rng_bad.py").read_text()
        + "\n\ndef fresh():\n    return np.random.default_rng(123)\n"
    )
    report2 = run_analysis([str(regressed)], baseline=load_baseline(baseline_path))
    assert len(report2.findings) == 1
    assert "bare integer seed (123)" in report2.findings[0].message


def test_fingerprints_survive_line_shifts(tmp_path):
    original = FIXTURES / "rng_bad.py"
    shifted = tmp_path / "rng_bad.py"
    shifted.write_text("# a new leading comment\n\n" + original.read_text())
    fp = lambda path: {f.fingerprint for f in run_analysis([str(path)]).findings}
    assert fp(original) == fp(shifted)


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert main([str(FIXTURES / "rng_bad.py")]) == 1
    assert main([str(tmp_path / "missing.py")]) == 2
    assert main([str(clean), "--rules", "no-such-rule"]) == 2
    assert main([str(clean), "--write-baseline"]) == 2
    capsys.readouterr()


def test_cli_text_output_names_rule_and_location(capsys):
    assert main([str(FIXTURES / "rng_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "[rng-discipline]" in out
    assert "rng_bad.py:" in out
    assert "finding(s)" in out


def test_cli_json_schema(capsys):
    assert main([str(FIXTURES / "rng_bad.py"), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["files"] == 1
    assert doc["counts"] == {"rng-discipline": 5}
    assert set(doc["rules"]) == set(RULES_BY_NAME)
    for finding in doc["findings"]:
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "fingerprint",
        }
        assert finding["line"] >= 1


def test_cli_rules_subset(capsys):
    # layout rule alone sees no RNG violations
    assert main([str(FIXTURES / "rng_bad.py"), "--rules", "layout-discipline"]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in RULES_BY_NAME:
        assert name in out


def test_cli_write_then_check_baseline(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    assert (
        main([str(FIXTURES / "rng_bad.py"), "--baseline", str(baseline),
              "--write-baseline"])
        == 0
    )
    assert baseline.is_file()
    assert (
        main([str(FIXTURES / "rng_bad.py"), "--baseline", str(baseline)]) == 0
    )
    capsys.readouterr()


def test_module_entrypoint_runs_clean_on_src():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC)],
        cwd=str(REPO),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout


# -- mypy satellite (runs where mypy is installed, e.g. the CI lint job) ------


def test_mypy_strict_core_modules():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=str(REPO),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
