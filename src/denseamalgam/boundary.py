"""Symbolic algebra of boundary expressions.

An expression denotes a compact metric space built from named atoms and three
constants (the empty space, the Cantor set, the two-point space) by the
dense-amalgam operator.  The algebra identifies expressions exactly when the
denoted spaces are homeomorphic for every interpretation of the atoms, which
the rewriting system below decides by reduction to a canonical normal form:

  R1  flatten      Amalgam(..., Amalgam(xs), ...)      -> Amalgam(..., xs, ...)
  R2  drop-empty   Empty argument inside an Amalgam    -> removed
  R3  drop-td      Cantor / PointPair / totally-disconnected atom argument
                   removed, provided at least one non-totally-disconnected
                   argument is present
  R4  collapse     Amalgam whose arguments are all totally disconnected
                   (or were all removed)                -> Cantor
  R5  order        arguments sorted and deduplicated

A normal form is either a non-Amalgam leaf or a one-level Amalgam over a
sorted duplicate-free tuple of non-totally-disconnected atoms.  Note that
Amalgam(a) does not reduce to a: the amalgam of a single space has many
pieces and is never homeomorphic to a lone connected atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRAIT_TOTALLY_DISCONNECTED = "totally_disconnected"
TRAIT_TWO_POINT = "two_point"
_KNOWN_TRAITS = frozenset({TRAIT_TOTALLY_DISCONNECTED, TRAIT_TWO_POINT})

# Sort ranks for R5: atoms first, then constants.
_RANK_ATOM = 0
_RANK_CANTOR = 1
_RANK_POINT_PAIR = 2
_RANK_EMPTY = 3


class BoundaryExpr:
    """Base class; concrete nodes are Empty, Cantor, PointPair, Atom, Amalgam."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Empty(BoundaryExpr):
    def sort_key(self):
        return (_RANK_EMPTY, "")


@dataclass(frozen=True, slots=True)
class Cantor(BoundaryExpr):
    def sort_key(self):
        return (_RANK_CANTOR, "")


@dataclass(frozen=True, slots=True)
class PointPair(BoundaryExpr):
    def sort_key(self):
        return (_RANK_POINT_PAIR, "")


@dataclass(frozen=True, slots=True)
class Atom(BoundaryExpr):
    name: str
    traits: frozenset = field(default=frozenset())

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be nonempty")
        traits = frozenset(self.traits)
        unknown = traits - _KNOWN_TRAITS
        if unknown:
            raise ValueError(f"unknown atom traits: {sorted(unknown)}")
        # A two-point space is totally disconnected; keep the closure explicit.
        if TRAIT_TWO_POINT in traits:
            traits = traits | {TRAIT_TOTALLY_DISCONNECTED}
        object.__setattr__(self, "traits", traits)

    def sort_key(self):
        return (_RANK_ATOM, self.name, TRAIT_TWO_POINT in self.traits,
                TRAIT_TOTALLY_DISCONNECTED in self.traits)


@dataclass(frozen=True, slots=True)
class Amalgam(BoundaryExpr):
    args: tuple

    def __post_init__(self):
        args = tuple(self.args)
        if not args:
            raise ValueError("zero-ary amalgam undefined")
        for a in args:
            if not isinstance(a, BoundaryExpr):
                raise TypeError(f"amalgam argument is not a boundary expression: {a!r}")
        object.__setattr__(self, "args", args)

    def sort_key(self):
        # Only used while sorting intermediate (non-normal) argument lists.
        return (-1, tuple(a.sort_key() for a in self.args))


EMPTY = Empty()
CANTOR = Cantor()
POINT_PAIR = PointPair()


def is_totally_disconnected(e: BoundaryExpr) -> bool:
    """True for leaves that denote totally disconnected spaces.

    Empty is vacuously totally disconnected but is handled by its own rule;
    Amalgam nodes are not leaves and report False (their reduced form decides).
    """
    if isinstance(e, (Cantor, PointPair, Empty)):
        return True
    if isinstance(e, Atom):
        return TRAIT_TOTALLY_DISCONNECTED in e.traits
    return False


def normalize(e: BoundaryExpr) -> BoundaryExpr:
    """Canonical normal form, applying R1-R5 to a fixed point (bottom-up)."""
    if not isinstance(e, BoundaryExpr):
        raise TypeError(f"not a boundary expression: {e!r}")
    if not isinstance(e, Amalgam):
        return e
    flat = []
    for a in e.args:
        na = normalize(a)
        if isinstance(na, Amalgam):        # R1
            flat.extend(na.args)
        elif isinstance(na, Empty):        # R2
            continue
        else:
            flat.append(na)
    survivors = [a for a in flat if not is_totally_disconnected(a)]
    if not survivors:                      # R4 (all TD, or everything dropped)
        return CANTOR
    # R3 dropped the TD leaves; R5 sorts and deduplicates what is left.
    survivors.sort(key=lambda a: a.sort_key())
    deduped = []
    for a in survivors:
        if not deduped or deduped[-1] != a:
            deduped.append(a)
    return Amalgam(tuple(deduped))


# ---------------------------------------------------------------------------
# Concrete syntax.
#
#   expr   := "Empty" | "Cantor" | "PointPair" | atom
#           | "Amalgam" "(" expr ("," expr)* ")"
#   atom   := name (":" trait)?
#   name   := [A-Za-z_][A-Za-z0-9_]* ("[" ... "]")?     (brackets: tag payload)
#   trait  := "td" | "2pt"
#
# The bracket suffix lets generated atoms carry a payload such as a generator
# subset ("bd[a,b,c]") while staying a single token.  ":td" marks a totally
# disconnected atom, ":2pt" a two-point (hence totally disconnected) atom.

_RESERVED = {"Empty", "Cantor", "PointPair", "Amalgam"}

# normalize, format_expr and the parser recurse once per level of Amalgam
# nesting; deeper text is refused before any of them could overflow
MAX_NESTING = 200


class ExprSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def read_name(self):
        t, p = self.text, self.pos
        start = p
        if p >= len(t) or not (t[p].isalpha() or t[p] == "_"):
            self.error("expected a name")
        p += 1
        while p < len(t) and (t[p].isalnum() or t[p] == "_"):
            p += 1
        if p < len(t) and t[p] == "[":
            close = t.find("]", p + 1)
            if close < 0:
                self.pos = p
                self.error("unterminated '[' in atom name")
            p = close + 1
        self.pos = p
        return t[start:p]

    def parse_expr(self):
        self.skip_ws()
        name = self.read_name()
        if name == "Empty":
            return EMPTY
        if name == "Cantor":
            return CANTOR
        if name == "PointPair":
            return POINT_PAIR
        if name == "Amalgam":
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != "(":
                self.error("expected '(' after Amalgam")
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"Amalgam nested deeper than {MAX_NESTING} levels")
            args = [self.parse_expr()]
            while True:
                self.skip_ws()
                if self.pos >= len(self.text):
                    self.error("unterminated Amalgam argument list")
                ch = self.text[self.pos]
                if ch == ",":
                    self.pos += 1
                    args.append(self.parse_expr())
                elif ch == ")":
                    self.pos += 1
                    self.depth -= 1
                    return Amalgam(tuple(args))
                else:
                    self.error("expected ',' or ')' in Amalgam argument list")
        if name in _RESERVED:
            self.error(f"reserved word {name!r} cannot be an atom name")
        traits = frozenset()
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            tag_start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()):
                self.pos += 1
            tag = self.text[tag_start:self.pos]
            if tag == "td":
                traits = frozenset({TRAIT_TOTALLY_DISCONNECTED})
            elif tag == "2pt":
                traits = frozenset({TRAIT_TWO_POINT})
            else:
                self.pos = tag_start
                self.error(f"unknown trait tag {tag!r} (expected 'td' or '2pt')")
        return Atom(name, traits)


def parse_expr(text: str) -> BoundaryExpr:
    """Parse the concrete expression syntax; raises ExprSyntaxError with offset."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("trailing input after expression")
    return expr


def format_expr(e: BoundaryExpr) -> str:
    """Render an expression in the concrete syntax (round-trips via parse_expr)."""
    if isinstance(e, Empty):
        return "Empty"
    if isinstance(e, Cantor):
        return "Cantor"
    if isinstance(e, PointPair):
        return "PointPair"
    if isinstance(e, Atom):
        if TRAIT_TWO_POINT in e.traits:
            return f"{e.name}:2pt"
        if TRAIT_TOTALLY_DISCONNECTED in e.traits:
            return f"{e.name}:td"
        return e.name
    if isinstance(e, Amalgam):
        return "Amalgam(" + ", ".join(format_expr(a) for a in e.args) + ")"
    raise TypeError(f"not a boundary expression: {e!r}")
