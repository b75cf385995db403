import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbracket.algebra import (
    AlgebraParams,
    DMinusOne,
    DPlusOne,
    DZero,
    LeftSeparable,
    Ratio,
    RightSeparable,
)
from superbracket.cli import main
from superbracket.representations import MomentumMap
from superbracket.runner import CHECKS, CheckInvocation, CheckSuiteConfig
from superbracket.sampling import Sampler
from superbracket.suite import (
    MAX_POINTS,
    SuiteSyntaxError,
    TypeMismatchError,
    UnknownKeyError,
    _DISPERSIONS,
    _FAMILIES,
    parse_suite,
)

MINIMAL = 'suite "m" { family = d_plus_one; checks = [ jacobi ]; }'


def test_minimal_suite_gets_defaults():
    cfg = parse_suite(MINIMAL)
    assert cfg.name == "m"
    assert cfg.family == DPlusOne()
    assert cfg.params == AlgebraParams()
    assert cfg.braiding == "braided"
    assert cfg.eta == 1.0
    assert cfg.sampler == Sampler()
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
    assert cfg.family == Ratio(2)
    assert cfg.params == AlgebraParams(h_L=1, h_R=2, kappa=1)
    assert cfg.braiding == "unbraided"
    ode = [c for c in cfg.checks if c.name == "ode"][0]
    assert ode.args == MomentumMap(kappa=2, gamma=1)
    assert cfg.sampler == Sampler(seed=7, count=50, tolerance=1e-8, domain=(0.2, 2.9))


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

    assert parse_suite(suite(str(MAX_POINTS))).sampler.count == MAX_POINTS
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
                           + text + ' } }').sampler

    # 2**53 + 1 is the first integer a float cannot hold
    assert sampling("seed=9007199254740993").seed == 2**53 + 1
    assert sampling("seed=+18446744073709551617").seed == 2**64 + 1
    assert sampling("seed=-0, points=+12").seed == 0 and sampling("points=+12").count == 12
    # a literal that is not an integer's is read as a float, as before
    assert sampling("seed=7.0, points=1e3") == Sampler(seed=7, count=1000)
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
    assert cfg.family == DZero()


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
    # AlgebraParams refuses its fields h_L, h_R; the error names the keys the suite wrote
    assert "coupling constants hL, hR must be positive" in str(err.value)
    # the CLI stops at the parse: exit 2, with the span
    path = tmp_path / "coupling.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert (f"line 1, col {text.index(disp) + 1}: coupling constants hL, hR must be positive"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [("eta", "3"), ("braiding", "unbraided")])
def test_an_unconsumed_parameter_is_refused_at_its_own_key(key, value, tmp_path, capsys):
    # the key is on line 3; the family, whose token the error used to name, on line 2
    text = f'suite "x" {{\n  family = d_zero;\n  {key} = {value};\n  checks = [ jacobi ];\n}}\n'
    with pytest.raises(UnknownKeyError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (3, 3)
    assert f"parameter {key!r} is set but consumed by no enabled check" in str(err.value)
    path = tmp_path / "unused.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line 3, col 3: parameter {key!r} is set" in capsys.readouterr().err


def test_a_domain_whose_width_overflows_is_refused_at_the_domain(tmp_path, capsys):
    # each end is finite, but hi - lo is not: numpy cannot draw from it
    text = 'suite "x" { family = d_zero; checks=[jacobi]; sampling { domain=[-1e308, 1e308] } }'
    col = text.index("domain") + 1
    with pytest.raises(TypeMismatchError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert "width overflows a float" in str(err.value)
    path = tmp_path / "wide.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line 1, col {col}: sampling domain" in capsys.readouterr().err


_NONZERO_ZETA = "requires a nonzero zeta"
_POSITIVE_KAPPA = "kappa, the momentum-map integration constant, must be positive"


@pytest.mark.parametrize("family, message", [
    ("ratio(zeta=2, kappa=0)", _POSITIVE_KAPPA),
    ("ratio(kappa=-1, zeta=2)", _POSITIVE_KAPPA),
    ("ratio(zeta=0)", "ratio(zeta=0.0) " + _NONZERO_ZETA),
    ("left_separable(zeta=0)", "left_separable(zeta=0.0) " + _NONZERO_ZETA),
    ("right_separable(zeta=-0.0)", "right_separable(zeta=-0.0) " + _NONZERO_ZETA),
])
def test_a_family_value_its_constructor_refuses_is_refused_at_the_family(
        family, message, tmp_path, capsys):
    # Ratio, LeftSeparable, RightSeparable and AlgebraParams own these rules; the parser
    # reports their refusal at the family's span, and the CLI stops there with exit 2
    text = f'suite "x" {{ family = {family}; checks = [ jacobi ]; }}'
    with pytest.raises(TypeMismatchError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, 22)
    assert message in str(err.value)
    path = tmp_path / "family.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line 1, col 22: {message}" in capsys.readouterr().err


def test_ode_argument_validation():
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; checks = [ ode(kappa=1) ]; }')
    with pytest.raises(UnknownKeyError):
        parse_suite('suite "x" { family = d_zero; checks = [ jacobi(n=2) ]; }')


@pytest.mark.parametrize("args, message", [
    ("kappa=0, gamma=1", "kappa must be positive"),
    ("kappa=-1, gamma=1", "kappa must be positive"),
    ("kappa=1, gamma=0", "gamma must be nonzero"),
])
def test_an_ode_argument_its_constructor_refuses_is_refused_at_the_check(
        args, message, tmp_path, capsys):
    # MomentumMap owns these rules; the parser reports its refusal at the ode token
    text = f'suite "x" {{ family = d_zero; checks = [ ode({args}) ]; }}'
    with pytest.raises(TypeMismatchError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, 41)
    assert message in str(err.value)
    path = tmp_path / "ode.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line 1, col 41: {message}" in capsys.readouterr().err


def test_a_zero_eta_is_refused_at_its_key(tmp_path, capsys):
    # hatted_matrices owns eta != 0; the checks on the representation never run
    text = 'suite "x" {\n  family = d_plus_one;\n  eta = 0;\n  checks = [ relations ];\n}\n'
    with pytest.raises(TypeMismatchError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (3, 3)
    assert "eta must be nonzero" in str(err.value)
    path = tmp_path / "eta.suite"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert "line 3, col 3: eta must be nonzero" in capsys.readouterr().err


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _kwargs(pairs) -> str:
    inner = ", ".join(f"{k}={_fmt_num(v)}" for k, v in pairs)
    return f"({inner})" if inner else ""


def _fields(obj) -> list:
    """(field, value) of a dataclass instance, in field order; none for None."""
    return [] if obj is None else [(f.name, getattr(obj, f.name))
                                   for f in dataclasses.fields(obj)]


def print_suite(cfg: CheckSuiteConfig) -> str:
    """Suite text that ``parse_suite`` reads back as ``cfg``, printed from its typed objects."""
    lines = [f'suite "{cfg.name}" {{']
    [(fam, param_keys)] = [(name, keys) for name, (tag, keys) in _FAMILIES.items()
                           if type(cfg.family) is tag]
    args = _fields(cfg.family) + [(k, getattr(cfg.params, k)) for k in param_keys]
    lines.append(f"  family = {fam}{_kwargs(args)};")
    disp = cfg.params.dispersion
    args = [(k, getattr(cfg.params, f)) for k, f in _DISPERSIONS[disp].items()]
    lines.append(f"  dispersion = {disp}{_kwargs(args)};")
    consumed = {key for c in cfg.checks for key in CHECKS[c.name].reads}
    if "braiding" in consumed:
        lines.append(f"  braiding = {cfg.braiding};")
    if "eta" in consumed:
        lines.append(f"  eta = {_fmt_num(cfg.eta)};")
    checks = ", ".join(c.name + _kwargs(_fields(c.args)) for c in cfg.checks)
    lines.append(f"  checks = [ {checks} ];")
    s = cfg.sampler
    lines.append(
        "  sampling { "
        f"seed={s.seed}, points={s.count}, tol={s.tolerance!r}, "
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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _algebras(draw):
    """A family tag and its AlgebraParams, as a suite can spell them.

    All six families, with a nonzero zeta where the family takes one and kappa on ratio,
    and all three dispersions with their parameters; ratio takes only the magnon.
    """
    family = draw(st.one_of(
        st.sampled_from([DZero(), DPlusOne(), DMinusOne()]),
        st.sampled_from([Ratio, LeftSeparable, RightSeparable]).flatmap(
            lambda tag: st.builds(tag, zeta=_finite.filter(lambda z: z != 0))),
    ))
    ratio = isinstance(family, Ratio)
    dispersion = "magnon" if ratio else draw(st.sampled_from(sorted(_DISPERSIONS)))
    values = {f: draw(_finite if f == "mass" else _positive)
              for f in _DISPERSIONS[dispersion].values()}
    kappa = draw(_positive) if ratio else 1.0
    return family, AlgebraParams(dispersion=dispersion, kappa=kappa, **values)


# the ode check's argument list: kappa > 0 and gamma != 0, or the check left out
_ode = st.one_of(st.none(), st.builds(MomentumMap, kappa=_positive,
                                      gamma=_finite.filter(lambda g: g != 0)))


@settings(max_examples=40, deadline=None)
@given(
    algebra=_algebras(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    points=st.integers(min_value=1, max_value=500),
    checks=_check_strategy,
    ode=_ode,
    eta=st.integers(min_value=1, max_value=5),
)
def test_round_trip_property(algebra, seed, points, checks, ode, eta):
    family, params = algebra
    invocations = [CheckInvocation(c) for c in checks]
    if ode is not None:
        invocations.insert(len(invocations) // 2, CheckInvocation("ode", ode))
    cfg = CheckSuiteConfig(
        name="prop",
        family=family,
        params=params,
        checks=tuple(invocations),
        sampler=Sampler(seed=seed, count=points),
        eta=float(eta) if any("eta" in CHECKS[c].reads for c in checks) else 1.0,
    )
    assert parse_suite(print_suite(cfg)) == cfg
