import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from superbracket.runner import CHECK_DESCRIPTIONS, CHECKS, emit_report, run_suite, suite_failed
from superbracket.suite import KNOWN_CHECKS, parse_suite

SRC = Path(__file__).resolve().parent.parent / "src"
BUNDLED = ["d_zero", "left_separable", "right_separable", "d_plus_one", "d_minus_one", "ratio"]


def bundled_text(name: str) -> str:
    return resources.files("superbracket").joinpath(f"suites/{name}.suite").read_text()


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("superbracket").joinpath(f"suites/{name}.suite")))


def cli_env(**overrides: str) -> dict[str, str]:
    """The parent environment with the checkout's ``src`` first on PYTHONPATH, so
    the children import this package installed or not, any stray
    SUPERBRACKET_SEED removed and the given variables set explicitly."""
    env = {k: v for k, v in os.environ.items() if k != "SUPERBRACKET_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(overrides)
    return env


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_suites_pass(name):
    cfg = parse_suite(bundled_text(name))
    records = run_suite(cfg)
    assert records, name
    assert not suite_failed(records), [
        (r.check, r.status, r.note) for r in records if r.status == "fail"
    ]


def test_expected_fail_status_is_distinct():
    cfg = parse_suite(bundled_text("d_plus_one"))
    records = run_suite(cfg)
    statuses = {r.check: r.status for r in records}
    assert statuses["cocommutativity"] == "pass"
    assert statuses["cocommutativity_fermion_fixture"] == "expected-fail"


def test_empty_checks_give_empty_report():
    cfg = parse_suite('suite "e" { family = d_zero; checks = []; }')
    records = run_suite(cfg)
    assert records == []
    assert emit_report(records, "json").startswith(b"{")
    payload = json.loads(emit_report(records, "json"))
    assert payload["records"] == [] and payload["schema_version"] == 1


def test_errors_are_captured_not_raised():
    # braided coproduct checks on the independent-momentum family must be
    # captured as failing records, not abort the run
    cfg = parse_suite(
        'suite "x" { family = d_zero; braiding = braided; '
        'checks = [ jacobi, coproduct_hom ]; }'
    )
    records = run_suite(cfg)
    by_check = {r.check: r for r in records}
    assert by_check["jacobi"].status == "pass"
    assert by_check["coproduct_hom"].status == "fail"
    assert "IncompatibleCentrals" in by_check["coproduct_hom"].note
    assert suite_failed(records)
    # a domain that the singular-locus margins cover whole fails the sampled
    # checks, not the run
    cfg = parse_suite(
        'suite "x" { family = d_zero; checks = [ jacobi, tail_cancellation ]; '
        'sampling { domain=[3.1, 3.18] } }'
    )
    by_check = {r.check: r for r in run_suite(cfg)}
    assert by_check["jacobi"].status == "fail"
    assert by_check["jacobi"].note.startswith("InvalidParams: sampling domain is too thin")
    assert by_check["tail_cancellation"].status == "pass"


def test_json_reports_are_byte_identical_for_fixed_seed():
    cfg = parse_suite(bundled_text("d_plus_one"))
    a = emit_report(run_suite(cfg), "json")
    b = emit_report(run_suite(cfg), "json")
    assert a == b


def test_json_reports_are_byte_identical_across_hash_seeds():
    # at this seed the worst coproduct_hom residual sits in two derivative
    # coefficients of one row at once, so the reported worst point follows the
    # order in which the operator stores its differential symbols
    outputs = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "superbracket.cli", "run",
             str(bundled_path("d_plus_one")), "--seed", "1986132999"],
            capture_output=True,
            env=cli_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_zero_samples_read_vacuous_not_fail(tmp_path):
    text = bundled_text("d_plus_one").replace("points=100", "points=0")
    assert "points=0" in text
    statuses = {r.check: r.status for r in run_suite(parse_suite(text))}
    for check in ("jacobi", "classify", "boost_commutator", "relations", "coproduct_hom",
                  "cocommutativity", "cocommutativity_fermion_fixture"):
        assert statuses[check] == "vacuous", check
    assert "fail" not in statuses.values()
    # the exact identities need no samples
    assert statuses["tail_cancellation"] == statuses["short_reduction"] == "pass"
    suite = tmp_path / "no_points.suite"
    suite.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "run", str(suite)],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()


def test_coproduct_hom_note_names_unchecked_boost_rows():
    notes = {name: {r.check: r.note for r in run_suite(parse_suite(bundled_text(name)))}
             for name in ("d_plus_one", "d_minus_one")}
    assert notes["d_plus_one"]["coproduct_hom"] == "convention (1, 1)"
    omitted = notes["d_minus_one"]["coproduct_hom"]
    assert omitted.startswith("convention (1, 1); J_L and J_R rows not checked")
    assert "materialised for d = +1" in omitted


def test_report_does_not_depend_on_earlier_suites_in_the_process():
    script = (
        "import sys; from importlib import resources; "
        "from superbracket.runner import emit_report, run_suite; "
        "from superbracket.suite import parse_suite; "
        "text = resources.files('superbracket').joinpath('suites/ratio.suite').read_text(); "
        "sys.stdout.buffer.write(emit_report(run_suite(parse_suite(text), seed_override=7)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr.decode()
    for name in BUNDLED:
        run_suite(parse_suite(bundled_text(name)))
    after = emit_report(run_suite(parse_suite(bundled_text("ratio")), seed_override=7))
    assert after == proc.stdout


def test_check_names_agree():
    assert len(set(KNOWN_CHECKS)) == len(KNOWN_CHECKS)
    assert set(CHECKS) == set(KNOWN_CHECKS) == set(CHECK_DESCRIPTIONS)


def test_seed_override_changes_the_report():
    cfg = parse_suite(bundled_text("d_zero"))
    a = emit_report(run_suite(cfg, seed_override=1), "json")
    b = emit_report(run_suite(cfg, seed_override=2), "json")
    assert a != b
    payload = json.loads(a)
    assert all(r["seed"] == 1 for r in payload["records"])


def test_record_field_names():
    cfg = parse_suite(bundled_text("d_zero"))
    payload = json.loads(emit_report(run_suite(cfg), "json"))
    record = payload["records"][0]
    assert set(record) == {"check", "status", "max_residual", "worst_point",
                           "samples", "seed", "note"}
    timed = json.loads(emit_report(run_suite(cfg), "json", include_timing=True))
    assert "elapsed_ms" in timed["records"][0]


def test_text_format():
    cfg = parse_suite(bundled_text("d_zero"))
    text = emit_report(run_suite(cfg), "text").decode()
    assert "jacobi" in text and "status" in text


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "run", str(bundled_path("ratio")),
         "--out", str(out)],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    payload = json.loads(out.read_bytes())
    assert all(r["status"] in ("pass", "expected-fail", "vacuous")
               for r in payload["records"])


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.suite"
    bad.write_text('suite "x" { family = ratio; checks = [jacobi]; }')
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "run", str(bad)],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 2
    assert b"zeta" in proc.stderr

    # ratio with a dispersion its momentum map does not exist for: exit 2 at the span
    bad.write_text('suite "x" { family = ratio(zeta=2); dispersion = relativistic(m=0.7);\n'
                   '  checks = [jacobi]; }')
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "run", str(bad)],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 2
    assert b"line 1, col 50" in proc.stderr and b"magnon dispersion" in proc.stderr

    failing = tmp_path / "failing.suite"
    failing.write_text(
        'suite "f" { family = d_zero; braiding = braided; checks = [ coproduct_hom ]; }'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "run", str(failing)],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 1

    # A negative seed is a usage error from either source, as in a suite file.
    for seed, args, env in (("-1", ["--seed", "-1"], cli_env()),
                            ("-5", [], cli_env(SUPERBRACKET_SEED="-5"))):
        proc = subprocess.run(
            [sys.executable, "-m", "superbracket.cli", "run", str(bundled_path("d_zero")), *args],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr.decode()
        assert f"'{seed}' is negative".encode() in proc.stderr

    # An unwritable --out is a usage error too, not a failed check.
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "run", str(bundled_path("d_zero")),
         "--out", str(out)],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 2, proc.stderr.decode()
    assert f"error: cannot write {out}: ".encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_cli_env_seed(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "superbracket.cli", "run",
             str(bundled_path("d_zero")), "--out", str(out)],
            capture_output=True,
            env=cli_env(SUPERBRACKET_SEED="123"),
        )
        assert proc.returncode == 0, proc.stderr.decode()
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_bytes())["records"][0]["seed"] == 123


def test_cli_list_and_explain():
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "list-checks"],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 0 and b"jacobi" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket.cli", "explain", "jacobi"],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 0 and b"Jacobi" in proc.stdout
