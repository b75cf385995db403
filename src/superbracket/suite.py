"""Check-suite DSL: tokenizer and recursive-descent parser.

Grammar (flat, line-diagnosable, no expression sublanguage):

    suite "name" {
      family = d_zero | d_plus_one | d_minus_one | ratio(zeta=<num>[, kappa=<num>])
             | left_separable(zeta=<num>) | right_separable(zeta=<num>);
      dispersion = magnon(hL=<num>, hR=<num>) | relativistic(m=<num>)
                 | massive_magnon(hL=<num>, hR=<num>, m=<num>);
      braiding = braided | unbraided;
      eta = <num>;
      checks = [ <check>[(<key>=<num>, ...)], ... ];   # the names in runner.CHECKS
      sampling { seed=<int>, points=<int>, tol=<num>, domain=[<num>, <num>] }
    }

Comments start with '#'.  ``parse_suite`` returns the objects the runner
runs: the family tag, the ``AlgebraParams`` and the ``Sampler``.

The parser owns the structure.  Unknown and repeated keys are errors, not
warnings, and every explicitly set parameter must be consumed by at least
one enabled check.  Every number is finite.  ``seed`` and ``points`` are
non-negative integers, ``points`` is at most ``MAX_POINTS``, ``tol`` is
positive and ``domain`` increases.  The ``ratio`` family takes only the
``magnon`` dispersion.

The checks, their argument lists and the optional keys each consumes are
read from ``runner.CHECKS``.  A check's argument list fills the class its
entry names (``ode(kappa=<num>, gamma=<num>)`` a ``MomentumMap``), and the
class's fields are the keys the list requires.

Each rule on a value belongs to the constructor of the object it
constrains, and the parser reports that constructor's refusal at the
value's token: ``Ratio``, ``LeftSeparable`` and ``RightSeparable`` refuse
``zeta = 0``; ``AlgebraParams`` refuses a non-positive ``hL``, ``hR`` or
``kappa``; ``MomentumMap`` refuses an ``ode`` check's non-positive
``kappa`` or zero ``gamma``; ``hatted_matrices`` refuses ``eta = 0``;
``Sampler`` refuses a domain whose width overflows a float.  The d = +-1
energy identification and a domain too thin for its points are refused
only when the checks run.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from .algebra import (
    AlgebraParams,
    DMinusOne,
    DPlusOne,
    DZero,
    FamilyTag,
    LeftSeparable,
    Ratio,
    RightSeparable,
)
from .errors import InconsistentParams, InvalidParams, SuperbracketError
from .representations import hatted_matrices
from .runner import CHECKS, CheckInvocation, CheckSuiteConfig
from .sampling import Sampler


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

# family name -> (its tag's constructor, the AlgebraParams fields it also
# takes); the tag's own fields are the keys it requires
_FAMILIES = {
    "d_zero": (DZero, ()),
    "d_plus_one": (DPlusOne, ()),
    "d_minus_one": (DMinusOne, ()),
    "ratio": (Ratio, ("kappa",)),
    "left_separable": (LeftSeparable, ()),
    "right_separable": (RightSeparable, ()),
}

# dispersion name -> {its key: the AlgebraParams field the key sets}
_DISPERSIONS = {
    "magnon": {"hL": "h_L", "hR": "h_R"},
    "relativistic": {"m": "mass"},
    "massive_magnon": {"hL": "h_L", "hR": "h_R", "m": "mass"},
}

# sampling key -> the Sampler field it sets
_SAMPLING = {"seed": "seed", "points": "count", "tol": "tolerance", "domain": "domain"}

# The most samples a suite may ask for.  Each sampled momentum array then
# holds at most 160 MB of complex128; without a bound, a count numpy cannot
# allocate would only fail once the run starts.
MAX_POINTS = 10**7


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
        """An optional ( key=value, ... ); without one, no pairs."""
        if not self.maybe_punct("("):
            return ()
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
    """Parse a suite file into the objects ``run_suite`` runs."""
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

    family: Optional[FamilyTag] = None
    family_tok = disp_tok = head
    family_fields: dict = {}
    dispersion = "magnon"
    disp_fields: dict = {}
    braiding = "braided"
    eta = 1.0
    checks: list[CheckInvocation] = []
    sampler = Sampler()
    explicit: dict[str, Token] = {}  # optional top-level key -> its token
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
            sampler = _parse_sampling(p, key)
            p.maybe_punct(";")
            continue

        p.expect_punct("=")
        if key.text == "family":
            family_tok = p.expect_ident()
            family, family_fields = _parse_family(p, family_tok)
        elif key.text == "dispersion":
            disp_tok = p.expect_ident()
            dispersion = disp_tok.text
            disp_fields = _parse_dispersion(p, disp_tok)
        elif key.text == "braiding":
            b = p.expect_ident()
            if b.text not in ("braided", "unbraided"):
                raise TypeMismatchError(f"braiding must be braided or unbraided, got {b.text!r}",
                                        b.line, b.col)
            braiding = b.text
            explicit["braiding"] = key
        elif key.text == "eta":
            eta, _ = p.expect_number()
            _construct(key, hatted_matrices, eta)
            explicit["eta"] = key
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
    params = _construct(disp_tok, AlgebraParams, dispersion=dispersion,
                        keys=_DISPERSIONS[dispersion], **disp_fields)
    params = _construct(family_tok, replace, params, **family_fields)
    if isinstance(family, Ratio) and dispersion != "magnon":
        raise TypeMismatchError(
            f"family ratio needs the magnon dispersion, not {dispersion}: its arccot "
            "momentum map exists only for the magnon dispersion", disp_tok.line, disp_tok.col)
    consumed = {key for c in checks for key in CHECKS[c.name].reads}
    for key, tok in explicit.items():
        if key not in consumed:
            raise UnknownKeyError(f"parameter {key!r} is set but consumed by no enabled check",
                                  tok.line, tok.col)

    return CheckSuiteConfig(
        name=name_tok.text,
        family=family,
        params=params,
        braiding=braiding,
        eta=eta,
        checks=tuple(checks),
        sampler=sampler,
    )


def _construct(tok: Token, build, *args, keys=None, **kwargs):
    """``build(*args, **kwargs)``; a refusal of the values is a parse error at ``tok``.

    ``keys`` maps each suite key to the field it sets, so the error names the key.
    """
    try:
        return build(*args, **kwargs)
    except (InconsistentParams, InvalidParams) as err:
        message = str(err)
        for key, field in (keys or {}).items():
            message = re.sub(rf"\b{field}\b", key, message)
        raise TypeMismatchError(message, tok.line, tok.col) from err


def _parse_fields(p: _Parser, tok: Token, what: str, cls, extra) -> Tuple[object, dict]:
    """The ``cls`` that the list after ``tok`` fills, and the values it sets of ``extra``.

    The class's fields are the keys the list requires and ``extra`` the other keys
    it may set.  Without a class (None), the list must be absent.
    """
    keys = [f.name for f in fields(cls)] if cls else []
    args = dict(p.parse_kwargs())
    for key in keys:
        if key not in args:
            raise UnknownKeyError(f"{tok.text} requires {key}", tok.line, tok.col)
    unknown = sorted(set(args).difference(keys, extra))
    if unknown:
        raise UnknownKeyError(f"unknown {tok.text} parameter {unknown[0]!r}" if keys
                              else f"{what} {tok.text} takes no parameters", tok.line, tok.col)
    built = _construct(tok, cls, **{k: args[k] for k in keys}) if cls else None
    return built, {k: args[k] for k in extra if k in args}


def _parse_family(p: _Parser, tok: Token) -> Tuple[FamilyTag, dict]:
    """The tag of the family ``tok`` names, and the AlgebraParams fields its list sets."""
    if tok.text not in _FAMILIES:
        raise UnknownKeyError(f"unknown family {tok.text!r}", tok.line, tok.col)
    tag, param_keys = _FAMILIES[tok.text]
    return _parse_fields(p, tok, "family", tag, param_keys)


def _parse_dispersion(p: _Parser, tok: Token) -> dict:
    """The AlgebraParams fields the dispersion ``tok`` names sets; none without a list."""
    keys = _DISPERSIONS.get(tok.text)
    if keys is None:
        raise UnknownKeyError(f"unknown dispersion {tok.text!r}", tok.line, tok.col)
    args = dict(p.parse_kwargs())
    if args and set(args) != set(keys):
        raise UnknownKeyError(f"dispersion {tok.text} takes exactly {sorted(keys)}",
                              tok.line, tok.col)
    return {keys[k]: v for k, v in args.items()}


def _parse_checks(p: _Parser) -> list[CheckInvocation]:
    p.expect_punct("[")
    out: list[CheckInvocation] = []
    if p.maybe_punct("]"):
        return out
    while True:
        name = p.expect_ident()
        if name.text not in CHECKS:
            raise UnknownKeyError(f"unknown check {name.text!r}", name.line, name.col)
        args, _ = _parse_fields(p, name, "check", CHECKS[name.text].takes, ())
        out.append(CheckInvocation(name.text, args))
        if p.maybe_punct(","):
            if p.maybe_punct("]"):
                break
            continue
        p.expect_punct("]")
        break
    return out


def _parse_sampling(p: _Parser, block: Token) -> Sampler:
    p.expect_punct("{")
    values = {}
    domain_tok = block
    while True:
        if p.maybe_punct("}"):
            break
        key = p.expect_ident()
        field = _SAMPLING.get(key.text)
        if field in values:
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
            values[field] = int(tok.text) if tok.text.lstrip("+-").isdecimal() else int(value)
        elif key.text == "tol":
            value, tok = p.expect_number()
            if value <= 0:
                raise TypeMismatchError("tol must be positive", tok.line, tok.col)
            values[field] = value
        elif key.text == "domain":
            domain_tok = key
            p.expect_punct("[")
            lo, _ = p.expect_number()
            p.expect_punct(",")
            hi, tok = p.expect_number()
            p.expect_punct("]")
            if hi <= lo:
                raise TypeMismatchError("domain must be an increasing interval",
                                        tok.line, tok.col)
            values[field] = (lo, hi)
        else:
            raise UnknownKeyError(f"unknown sampling key {key.text!r}", key.line, key.col)
        p.maybe_punct(",")
    # The keys are checked as they are read; what the Sampler can still refuse is the domain.
    return _construct(domain_tok, Sampler, **values)
