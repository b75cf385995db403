"""Check-suite DSL: tokenizer and recursive-descent parser.

Grammar (flat, line-diagnosable, no expression sublanguage):

    suite "name" {
      family = d_zero | d_plus_one | d_minus_one | ratio(zeta=<num>[, kappa=<num>])
             | left_separable(zeta=<num>) | right_separable(zeta=<num>);
      dispersion = magnon(hL=<num>, hR=<num>) | relativistic(m=<num>)
                 | massive_magnon(hL=<num>, hR=<num>, m=<num>);
      braiding = braided | unbraided;
      eta = <num>;
      checks = [ jacobi, classify, boost_commutator, relations,
                 ode(kappa=<num>, gamma=<num>), shortening, coproduct_hom,
                 cocommutativity, tail_cancellation, short_reduction ];
      sampling { seed=<int>, points=<int>, tol=<num>, domain=[<num>, <num>] }
    }

Comments start with '#'.  Unknown and repeated keys are errors, not
warnings, and every explicitly set parameter must be consumed by at least
one enabled check.  The ``ratio`` family takes only the ``magnon``
dispersion, and the couplings ``hL`` and ``hR`` are positive.
Every number is finite.  ``seed`` and ``points`` are non-negative integers,
and ``points`` is at most ``MAX_POINTS``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import SuperbracketError


class SuiteParseError(SuperbracketError):
    """Base for DSL diagnostics; carries a source span."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SuiteSyntaxError(SuiteParseError):
    pass


class UnknownKeyError(SuiteParseError):
    pass


class TypeMismatchError(SuiteParseError):
    pass


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_PUNCT = set("{}()[]=,;")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | string | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise SuiteSyntaxError("unterminated string", line, start_col)
                j += 1
            if j >= n:
                raise SuiteSyntaxError("unterminated string", line, start_col)
            tokens.append(Token("string", text[i + 1:j], line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit() or (ch in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".+-eE"):
                if text[j] in "+-" and j != i and text[j - 1] not in "eE":
                    break
                j += 1
            tokens.append(Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise SuiteSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Configuration model
# --------------------------------------------------------------------------

KNOWN_CHECKS = (
    "jacobi",
    "classify",
    "boost_commutator",
    "relations",
    "ode",
    "shortening",
    "coproduct_hom",
    "cocommutativity",
    "tail_cancellation",
    "short_reduction",
)

# checks that consume the optional top-level parameters
_CONSUMES = {
    "eta": {"relations", "shortening", "coproduct_hom", "cocommutativity", "short_reduction"},
    "braiding": {"coproduct_hom", "cocommutativity", "tail_cancellation"},
}

FAMILY_NAMES = (
    "d_zero",
    "d_plus_one",
    "d_minus_one",
    "ratio",
    "left_separable",
    "right_separable",
)

DISPERSION_NAMES = ("magnon", "relativistic", "massive_magnon")

DEFAULT_DOMAIN = (0.1, math.pi - 0.1)

# The most samples a suite may ask for.  Each sampled momentum array then
# holds at most 160 MB of complex128; without a bound, a count numpy cannot
# allocate would only fail once the run starts.
MAX_POINTS = 10**7


@dataclass(frozen=True)
class SamplingConfig:
    seed: int = 42
    points: int = 100
    tol: float = 1e-9
    domain: Tuple[float, float] = DEFAULT_DOMAIN


@dataclass(frozen=True)
class CheckInvocation:
    name: str
    args: Tuple[Tuple[str, float], ...] = ()

    def arg(self, key: str):
        for k, v in self.args:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class CheckSuiteConfig:
    name: str
    family: str
    family_args: Tuple[Tuple[str, float], ...] = ()
    dispersion: str = "magnon"
    dispersion_args: Tuple[Tuple[str, float], ...] = (("hL", 1.0), ("hR", 1.0))
    braiding: str = "braided"
    eta: float = 1.0
    checks: Tuple[CheckInvocation, ...] = ()
    sampling: SamplingConfig = SamplingConfig()

    def family_arg(self, key: str, default=None):
        for k, v in self.family_args:
            if k == key:
                return v
        return default

    def dispersion_arg(self, key: str, default=None):
        for k, v in self.dispersion_args:
            if k == key:
                return v
        return default


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            raise SuiteSyntaxError(f"expected {ch!r}, got {tok.text or 'end of input'!r}",
                                   tok.line, tok.col)
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise SuiteSyntaxError(f"expected an identifier, got {tok.text or 'end of input'!r}",
                                   tok.line, tok.col)
        return self.advance()

    def expect_number(self) -> Tuple[float, Token]:
        tok = self.peek()
        if tok.kind != "number":
            raise TypeMismatchError(f"expected a number, got {tok.text or 'end of input'!r}",
                                    tok.line, tok.col)
        self.advance()
        try:
            value = float(tok.text)
        except ValueError:
            raise TypeMismatchError(f"malformed number {tok.text!r}", tok.line, tok.col)
        if not math.isfinite(value):
            raise TypeMismatchError(f"number {tok.text!r} is not finite", tok.line, tok.col)
        return value, tok

    def maybe_punct(self, ch: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            self.advance()
            return True
        return False

    def parse_kwargs(self) -> Tuple[Tuple[str, float], ...]:
        """( key=value, ... )"""
        self.expect_punct("(")
        out = []
        while True:
            key = self.expect_ident()
            if any(k == key.text for k, _ in out):
                raise UnknownKeyError(f"duplicate key {key.text!r}", key.line, key.col)
            self.expect_punct("=")
            value, _ = self.expect_number()
            out.append((key.text, value))
            if self.maybe_punct(","):
                continue
            break
        self.expect_punct(")")
        return tuple(out)


def parse_suite(text: str) -> CheckSuiteConfig:
    """Parse a suite file into a validated configuration."""
    p = _Parser(tokenize(text))
    head = p.expect_ident()
    if head.text != "suite":
        raise SuiteSyntaxError("a suite file starts with: suite \"name\" { ... }",
                               head.line, head.col)
    name_tok = p.peek()
    if name_tok.kind != "string":
        raise SuiteSyntaxError("expected the suite name as a quoted string",
                               name_tok.line, name_tok.col)
    p.advance()
    p.expect_punct("{")

    family: Optional[str] = None
    family_args: Tuple[Tuple[str, float], ...] = ()
    family_tok: Optional[Token] = None
    dispersion = "magnon"
    dispersion_args: Tuple[Tuple[str, float], ...] = (("hL", 1.0), ("hR", 1.0))
    disp_tok: Optional[Token] = None
    braiding = "braided"
    eta = 1.0
    checks: list[CheckInvocation] = []
    sampling = SamplingConfig()
    explicit: list[str] = []
    seen: set[str] = set()

    while True:
        tok = p.peek()
        if tok.kind == "punct" and tok.text == "}":
            p.advance()
            break
        key = p.expect_ident()
        if key.text in seen:
            raise UnknownKeyError(f"duplicate key {key.text!r}", key.line, key.col)
        seen.add(key.text)

        if key.text == "sampling":
            sampling = _parse_sampling(p)
            p.maybe_punct(";")
            continue

        p.expect_punct("=")
        if key.text == "family":
            fam = p.expect_ident()
            if fam.text not in FAMILY_NAMES:
                raise UnknownKeyError(f"unknown family {fam.text!r}", fam.line, fam.col)
            family, family_tok = fam.text, fam
            if p.peek().kind == "punct" and p.peek().text == "(":
                family_args = p.parse_kwargs()
        elif key.text == "dispersion":
            disp = p.expect_ident()
            if disp.text not in DISPERSION_NAMES:
                raise UnknownKeyError(f"unknown dispersion {disp.text!r}", disp.line, disp.col)
            dispersion, disp_tok = disp.text, disp
            dispersion_args = ()
            if p.peek().kind == "punct" and p.peek().text == "(":
                dispersion_args = p.parse_kwargs()
            _validate_dispersion_args(dispersion, dispersion_args, disp)
        elif key.text == "braiding":
            b = p.expect_ident()
            if b.text not in ("braided", "unbraided"):
                raise TypeMismatchError(f"braiding must be braided or unbraided, got {b.text!r}",
                                        b.line, b.col)
            braiding = b.text
            explicit.append("braiding")
        elif key.text == "eta":
            eta, _ = p.expect_number()
            explicit.append("eta")
        elif key.text == "checks":
            checks = _parse_checks(p)
        else:
            raise UnknownKeyError(f"unknown key {key.text!r}", key.line, key.col)
        p.maybe_punct(";")

    eof = p.peek()
    if eof.kind != "eof":
        raise SuiteSyntaxError(f"trailing input {eof.text!r}", eof.line, eof.col)

    if family is None:
        raise UnknownKeyError("a suite must declare its family", head.line, head.col)
    _validate_family_args(family, family_args, family_tok)
    if family == "ratio" and dispersion != "magnon":
        raise TypeMismatchError(
            f"family ratio needs the magnon dispersion, not {dispersion}: its arccot "
            "momentum map exists only for the magnon dispersion", disp_tok.line, disp_tok.col)
    _validate_consumption(explicit, checks, family_tok or head)

    return CheckSuiteConfig(
        name=name_tok.text,
        family=family,
        family_args=family_args,
        dispersion=dispersion,
        dispersion_args=dispersion_args,
        braiding=braiding,
        eta=eta,
        checks=tuple(checks),
        sampling=sampling,
    )


def _parse_checks(p: _Parser) -> list[CheckInvocation]:
    p.expect_punct("[")
    out: list[CheckInvocation] = []
    if p.maybe_punct("]"):
        return out
    while True:
        name = p.expect_ident()
        if name.text not in KNOWN_CHECKS:
            raise UnknownKeyError(f"unknown check {name.text!r}", name.line, name.col)
        args: Tuple[Tuple[str, float], ...] = ()
        if p.peek().kind == "punct" and p.peek().text == "(":
            args = p.parse_kwargs()
        if name.text == "ode":
            keys = {k for k, _ in args}
            if keys != {"kappa", "gamma"}:
                raise UnknownKeyError("ode requires exactly kappa and gamma",
                                      name.line, name.col)
        elif args:
            raise UnknownKeyError(f"check {name.text!r} takes no arguments",
                                  name.line, name.col)
        out.append(CheckInvocation(name.text, args))
        if p.maybe_punct(","):
            if p.maybe_punct("]"):
                break
            continue
        p.expect_punct("]")
        break
    return out


def _parse_sampling(p: _Parser) -> SamplingConfig:
    p.expect_punct("{")
    values = {}
    while True:
        if p.maybe_punct("}"):
            break
        key = p.expect_ident()
        if key.text in values:
            raise UnknownKeyError(f"duplicate key {key.text!r}", key.line, key.col)
        p.expect_punct("=")
        if key.text == "seed" or key.text == "points":
            value, tok = p.expect_number()
            if not (value >= 0 and value.is_integer()):
                raise TypeMismatchError(f"{key.text} must be a non-negative integer",
                                        tok.line, tok.col)
            if key.text == "points" and value > MAX_POINTS:
                raise TypeMismatchError(f"points must be at most {MAX_POINTS}",
                                        tok.line, tok.col)
            # An integer literal is read exactly, past the 2**53 where floats skip integers.
            values[key.text] = int(tok.text) if tok.text.lstrip("+-").isdecimal() else int(value)
        elif key.text == "tol":
            value, tok = p.expect_number()
            if value <= 0:
                raise TypeMismatchError("tol must be positive", tok.line, tok.col)
            values["tol"] = value
        elif key.text == "domain":
            p.expect_punct("[")
            lo, _ = p.expect_number()
            p.expect_punct(",")
            hi, tok = p.expect_number()
            p.expect_punct("]")
            if hi <= lo:
                raise TypeMismatchError("domain must be an increasing interval",
                                        tok.line, tok.col)
            values["domain"] = (lo, hi)
        else:
            raise UnknownKeyError(f"unknown sampling key {key.text!r}", key.line, key.col)
        p.maybe_punct(",")
    return SamplingConfig(**values)


def _validate_family_args(family: str, args, tok: Optional[Token]):
    line = tok.line if tok else 0
    col = tok.col if tok else 0
    keys = {k for k, _ in args}
    if family in ("ratio", "left_separable", "right_separable"):
        if "zeta" not in keys:
            raise UnknownKeyError(f"{family} requires zeta", line, col)
        extra = keys - ({"zeta", "kappa"} if family == "ratio" else {"zeta"})
        if extra:
            raise UnknownKeyError(f"unknown {family} parameter {sorted(extra)[0]!r}", line, col)
        zeta = dict(args)["zeta"]
        if zeta == 0:
            raise TypeMismatchError(f"{family} requires a nonzero zeta", line, col)
    elif keys:
        raise UnknownKeyError(f"family {family} takes no parameters", line, col)


def _validate_dispersion_args(dispersion: str, args, tok: Token):
    keys = {k for k, _ in args}
    required = {
        "magnon": {"hL", "hR"},
        "relativistic": {"m"},
        "massive_magnon": {"hL", "hR", "m"},
    }[dispersion]
    if args and keys != required:
        raise UnknownKeyError(
            f"dispersion {dispersion} takes exactly {sorted(required)}", tok.line, tok.col
        )
    if any(k in ("hL", "hR") and v <= 0 for k, v in args):
        raise TypeMismatchError(f"dispersion {dispersion} requires positive hL and hR",
                                tok.line, tok.col)


def _validate_consumption(explicit, checks, tok: Token):
    enabled = {c.name for c in checks}
    for key in explicit:
        consumers = _CONSUMES.get(key, set())
        if consumers and not (consumers & enabled):
            raise UnknownKeyError(
                f"parameter {key!r} is set but consumed by no enabled check",
                tok.line, tok.col,
            )
