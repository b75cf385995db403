import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbracket.cli import main
from superbracket.suite import (
    MAX_POINTS,
    CheckInvocation,
    CheckSuiteConfig,
    SamplingConfig,
    SuiteSyntaxError,
    TypeMismatchError,
    UnknownKeyError,
    _CONSUMES,
    parse_suite,
)

MINIMAL = 'suite "m" { family = d_plus_one; checks = [ jacobi ]; }'


def test_minimal_suite_gets_defaults():
    cfg = parse_suite(MINIMAL)
    assert cfg.name == "m"
    assert cfg.family == "d_plus_one"
    assert cfg.braiding == "braided"
    assert cfg.eta == 1.0
    assert cfg.sampling == SamplingConfig()
    assert cfg.checks == (CheckInvocation("jacobi"),)


def test_full_suite():
    text = '''
    # a comment
    suite "full" {
      family = ratio(zeta=2, kappa=1);
      dispersion = magnon(hL=1, hR=2);
      braiding = unbraided;
      eta = 3;
      checks = [ jacobi, relations, ode(kappa=2, gamma=1), tail_cancellation ];
      sampling { seed=7, points=50, tol=1e-8, domain=[0.2, 2.9] }
    }
    '''
    cfg = parse_suite(text)
    assert cfg.family == "ratio" and cfg.family_arg("zeta") == 2
    assert cfg.dispersion_arg("hR") == 2
    assert cfg.braiding == "unbraided"
    ode = [c for c in cfg.checks if c.name == "ode"][0]
    assert ode.arg("kappa") == 2 and ode.arg("gamma") == 1
    assert cfg.sampling.seed == 7 and cfg.sampling.domain == (0.2, 2.9)


def test_empty_checks_allowed():
    cfg = parse_suite('suite "e" { family = d_zero; checks = []; }')
    assert cfg.checks == ()


def test_ratio_requires_zeta():
    with pytest.raises(UnknownKeyError) as err:
        parse_suite('suite "x" { family = ratio; checks = [ jacobi ]; }')
    assert "zeta" in str(err.value)


def test_unknown_key_is_an_error_with_span():
    with pytest.raises(UnknownKeyError) as err:
        parse_suite('suite "x" {\n  family = d_zero;\n  frobnicate = 1;\n  checks=[jacobi];\n}')
    assert err.value.line == 3
    assert "frobnicate" in str(err.value)


def test_unknown_check_rejected():
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; checks = [ jacobi, warp ]; }')


def test_type_mismatches():
    with pytest.raises(TypeMismatchError):
        parse_suite('suite "x" { family = d_zero; checks=[jacobi]; sampling { seed=1.5 } }')
    with pytest.raises(TypeMismatchError):
        parse_suite('suite "x" { family = d_zero; checks=[jacobi]; sampling { tol=-1 } }')
    with pytest.raises(TypeMismatchError):
        parse_suite('suite "x" { family = d_zero; checks=[jacobi]; sampling { domain=[2, 1] } }')
    with pytest.raises(TypeMismatchError):
        parse_suite('suite "x" { family = d_zero; braiding = sideways; checks=[jacobi]; }')
    for bad in ("seed=-1", "points=-5"):
        text = 'suite "x" { family = d_zero; checks=[jacobi]; sampling { ' + bad + ' } }'
        with pytest.raises(TypeMismatchError) as err:
            parse_suite(text)
        assert (err.value.line, err.value.col) == (1, text.index("-") + 1)


def test_points_are_bounded(tmp_path, capsys):
    def suite(points):
        return 'suite "x" { family = d_zero; checks=[jacobi]; sampling { points=' + points + ' } }'

    assert parse_suite(suite(str(MAX_POINTS))).sampling.points == MAX_POINTS
    for bad in ("1e20", str(MAX_POINTS + 1)):
        with pytest.raises(TypeMismatchError) as err:
            parse_suite(suite(bad))
        assert (err.value.line, err.value.col) == (1, suite(bad).index(bad) + 1)
    # the CLI stops at the parse: exit 2, with the span
    path = tmp_path / "big.suite"
    path.write_text(suite("1e20"))
    assert main(["run", str(path)]) == 2
    assert "line 1, col" in capsys.readouterr().err


def test_integer_literals_are_read_exactly():
    def sampling(text):
        return parse_suite('suite "x" { family = d_zero; checks=[jacobi]; sampling { '
                           + text + ' } }').sampling

    # 2**53 + 1 is the first integer a float cannot hold
    assert sampling("seed=9007199254740993").seed == 2**53 + 1
    assert sampling("seed=+18446744073709551617").seed == 2**64 + 1
    assert sampling("seed=-0, points=+12").seed == 0 and sampling("points=+12").points == 12
    # a literal that is not an integer's is read as a float, as before
    assert sampling("seed=7.0, points=1e3") == SamplingConfig(seed=7, points=1000)
    assert sampling("seed=1e20").seed == 10**20


@pytest.mark.parametrize("text", [
    'suite "x" { family = d_zero; checks=[jacobi]; sampling { tol=1e999 } }',
    'suite "x" { family = d_zero; checks=[jacobi]; sampling { domain=[0.1, 1e999] } }',
    'suite "x" { family = d_zero; dispersion = magnon(hL=1e999, hR=1); checks=[jacobi]; }',
    'suite "x" { family = ratio(zeta=1e999); checks=[jacobi]; }',
    'suite "x" { family = d_plus_one; eta = 1e999; checks=[relations]; }',
    'suite "x" { family = d_zero; checks=[ode(kappa=1, gamma=1e999)]; }',
], ids=["tol", "domain", "dispersion", "zeta", "eta", "ode"])
def test_a_number_that_overflows_is_refused_at_its_span(text, tmp_path, capsys):
    # float("1e999") is inf: an infinite tolerance would pass every check
    with pytest.raises(TypeMismatchError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, text.index("1e999") + 1)
    assert "not finite" in str(err.value)
    path = tmp_path / "inf.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert "line 1, col" in capsys.readouterr().err


def test_unconsumed_parameters_are_errors():
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; eta = 2; checks = [ jacobi ]; }')
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; braiding = braided; checks = [ jacobi ]; }')
    # kappa parameterises the ratio family's momentum map and nothing else
    for family in ("left_separable", "right_separable"):
        with pytest.raises(UnknownKeyError) as err:
            parse_suite(f'suite "x" {{ family = {family}(zeta=2, kappa=5); checks = [ jacobi ]; }}')
        assert "kappa" in str(err.value)
    # consumed is fine
    parse_suite('suite "x" { family = d_plus_one; eta = 2; checks = [ relations ]; }')
    parse_suite('suite "x" { family = ratio(zeta=2, kappa=5); checks = [ jacobi ]; }')


def test_ratio_rejects_non_magnon_dispersions():
    # The arccot momentum map of the ratio family exists only for the magnon
    # dispersion; any other is refused at its span, not failed check by check.
    for disp in ("relativistic(m=0.7)", "massive_magnon(hL=1.5, hR=1.5, m=0.3)"):
        text = f'suite "x" {{ family = ratio(zeta=2); dispersion = {disp}; checks = [ jacobi ]; }}'
        with pytest.raises(TypeMismatchError) as err:
            parse_suite(text)
        assert (err.value.line, err.value.col) == (1, text.index(disp) + 1)
        assert "arccot momentum map exists only for the magnon dispersion" in str(err.value)
    parse_suite('suite "x" { family = ratio(zeta=2); dispersion = magnon(hL=2, hR=0.5); '
                'checks = [ jacobi ]; }')


def test_syntax_errors_have_spans():
    with pytest.raises(SuiteSyntaxError) as err:
        parse_suite('suite "x" {\n  family = = d_zero;\n}')
    assert err.value.line == 2 and err.value.col > 0
    with pytest.raises(SuiteSyntaxError):
        parse_suite('nonsense')
    with pytest.raises(SuiteSyntaxError):
        parse_suite('suite "unterminated { }')
    with pytest.raises(SuiteSyntaxError):
        parse_suite('suite "x" { family = d_zero; checks = [jacobi];')


def test_semicolons_are_optional():
    cfg = parse_suite('suite "x" { family = d_zero\n checks = [jacobi] }')
    assert cfg.family == "d_zero"


def test_duplicate_key_rejected():
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; family = d_zero; checks=[jacobi]; }')


@pytest.mark.parametrize("text, key", [
    # with a repeat, the parser's zeta check and the runner could read different values
    ('suite "x" { family = ratio(zeta=0, zeta=2); checks=[jacobi]; }', "zeta"),
    ('suite "x" { family = d_zero; checks=[ode(kappa=1, gamma=2, kappa=3)]; }', "kappa"),
    ('suite "x" { family = d_zero; checks=[jacobi]; sampling { seed=1, seed=2 } }', "seed"),
], ids=["family", "ode", "sampling"])
def test_a_key_repeated_inside_a_list_is_refused_at_its_span(text, key, tmp_path, capsys):
    with pytest.raises(UnknownKeyError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, text.rindex(key) + 1)
    assert f"duplicate key {key!r}" in str(err.value)
    path = tmp_path / "dup.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line 1, col {text.rindex(key) + 1}: duplicate key" in capsys.readouterr().err


@pytest.mark.parametrize("disp", [
    "magnon(hL=0, hR=1)",
    "massive_magnon(hL=1.5, hR=-2, m=0.3)",
])
def test_a_non_positive_coupling_is_refused_at_the_dispersion(disp, tmp_path, capsys):
    text = f'suite "x" {{ family = d_zero; dispersion = {disp}; checks = [ jacobi ]; }}'
    with pytest.raises(TypeMismatchError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, text.index(disp) + 1)
    assert "requires positive hL and hR" in str(err.value)
    # the CLI stops at the parse: exit 2, with the span
    path = tmp_path / "coupling.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line 1, col {text.index(disp) + 1}:" in capsys.readouterr().err


def test_ode_argument_validation():
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; checks = [ ode(kappa=1) ]; }')
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; checks = [ jacobi(n=2) ]; }')


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def print_suite(cfg: CheckSuiteConfig) -> str:
    """Suite text that ``parse_suite`` reads back as ``cfg``."""
    lines = [f'suite "{cfg.name}" {{']
    fam = cfg.family
    if cfg.family_args:
        inner = ", ".join(f"{k}={_fmt_num(v)}" for k, v in cfg.family_args)
        fam += f"({inner})"
    lines.append(f"  family = {fam};")
    disp = cfg.dispersion
    if cfg.dispersion_args:
        inner = ", ".join(f"{k}={_fmt_num(v)}" for k, v in cfg.dispersion_args)
        disp += f"({inner})"
    lines.append(f"  dispersion = {disp};")
    enabled = {c.name for c in cfg.checks}
    if _CONSUMES["braiding"] & enabled:
        lines.append(f"  braiding = {cfg.braiding};")
    if _CONSUMES["eta"] & enabled:
        lines.append(f"  eta = {_fmt_num(cfg.eta)};")
    checks = []
    for c in cfg.checks:
        if c.args:
            inner = ", ".join(f"{k}={_fmt_num(v)}" for k, v in c.args)
            checks.append(f"{c.name}({inner})")
        else:
            checks.append(c.name)
    lines.append(f"  checks = [ {', '.join(checks)} ];")
    s = cfg.sampling
    lines.append(
        "  sampling { "
        f"seed={s.seed}, points={s.points}, tol={s.tol!r}, "
        f"domain=[{s.domain[0]!r}, {s.domain[1]!r}]"
        " }"
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_round_trip_bundled_style():
    cfg = parse_suite(MINIMAL)
    assert parse_suite(print_suite(cfg)) == cfg


_check_strategy = st.lists(
    st.sampled_from(["jacobi", "classify", "relations", "shortening", "tail_cancellation"]),
    min_size=1,
    max_size=4,
    unique=True,
)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["d_zero", "d_plus_one", "d_minus_one"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    points=st.integers(min_value=1, max_value=500),
    checks=_check_strategy,
    eta=st.integers(min_value=1, max_value=5),
)
def test_round_trip_property(family, seed, points, checks, eta):
    cfg = CheckSuiteConfig(
        name="prop",
        family=family,
        checks=tuple(CheckInvocation(c) for c in checks),
        sampling=SamplingConfig(seed=seed, points=points),
        eta=float(eta) if _CONSUMES["eta"] & set(checks) else 1.0,
    )
    assert parse_suite(print_suite(cfg)) == cfg
