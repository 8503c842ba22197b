"""First-order formulas over adjacency, equality and vertex colors.

Connectives are exactly negation, conjunction and disjunction, plus the two
quantifiers.  Concrete syntax (binary applications always parenthesized,
quantifiers extend maximally to the right):

    ex x. all y. (~eq(x,y) | adj(x,y))
    col(3,x)

Identifiers match [a-z][a-z0-9_]* and may not be the reserved words
ex, all, adj, eq, col.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from fodef.graphs import ColoredGraph


class FormulaError(ValueError):
    """Syntax or scoping problem in a formula."""


class UnboundVariableError(FormulaError):
    pass


@dataclass(frozen=True)
class Adj:
    x: str
    y: str


@dataclass(frozen=True)
class Eq:
    x: str
    y: str


@dataclass(frozen=True)
class Col:
    color: int
    x: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Adj, Eq, Col, Not, And, Or, Exists, Forall]

_ATOMS = (Adj, Eq, Col)
_RESERVED = {"ex", "all", "adj", "eq", "col"}


def conjunction(parts: list[Formula]) -> Formula:
    if not parts:
        raise FormulaError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjunction(parts: list[Formula]) -> Formula:
    if not parts:
        raise FormulaError("empty disjunction")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<id>[a-z][a-z0-9_]*)|(?P<num>[0-9]+)|(?P<sym>[().,&|~]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not text[pos:].strip():
            break
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    if text[pos:].strip():
        raise FormulaError(f"unexpected character {text[pos:].strip()[0]!r} at position {pos}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, value: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        if value is not None and tok[1] != value:
            raise FormulaError(f"expected {value!r}, found {tok[1]!r} at position {tok[2]}")
        self.i += 1
        return tok

    def ident(self) -> str:
        tok = self.take()
        if tok[0] != "id" or tok[1] in _RESERVED:
            raise FormulaError(f"expected identifier, found {tok[1]!r} at position {tok[2]}")
        return tok[1]

    def formula(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        kind, value, pos = tok
        if value == "ex" or value == "all":
            self.take()
            var = self.ident()
            self.take(".")
            body = self.formula()
            return Exists(var, body) if value == "ex" else Forall(var, body)
        if value == "~":
            self.take()
            return Not(self.formula())
        if value == "(":
            self.take()
            left = self.formula()
            op = self.take()
            if op[1] not in ("&", "|"):
                raise FormulaError(f"expected '&' or '|', found {op[1]!r} at position {op[2]}")
            right = self.formula()
            self.take(")")
            return And(left, right) if op[1] == "&" else Or(left, right)
        if value in ("adj", "eq"):
            self.take()
            self.take("(")
            a = self.ident()
            self.take(",")
            b = self.ident()
            self.take(")")
            return Adj(a, b) if value == "adj" else Eq(a, b)
        if value == "col":
            self.take()
            self.take("(")
            num = self.take()
            if num[0] != "num":
                raise FormulaError(f"expected color id, found {num[1]!r} at position {num[2]}")
            self.take(",")
            a = self.ident()
            self.take(")")
            return Col(int(num[1]), a)
        raise FormulaError(f"unexpected token {value!r} at position {pos}")


def parse_formula(text: str, strict: bool = False) -> Formula:
    """Parse concrete syntax; with strict=True, free variables are an error."""
    p = _Parser(text)
    f = p.formula()
    tok = p.peek()
    if tok is not None:
        raise FormulaError(f"trailing input {tok[1]!r} at position {tok[2]}")
    if strict:
        fv = free_variables(f)
        if fv:
            raise UnboundVariableError(f"unbound variables: {', '.join(sorted(fv))}")
    return f


def print_formula(f: Formula) -> str:
    if isinstance(f, Adj):
        return f"adj({f.x},{f.y})"
    if isinstance(f, Eq):
        return f"eq({f.x},{f.y})"
    if isinstance(f, Col):
        return f"col({f.color},{f.x})"
    if isinstance(f, Not):
        return f"~{print_formula(f.body)}"
    if isinstance(f, And):
        return f"({print_formula(f.left)} & {print_formula(f.right)})"
    if isinstance(f, Or):
        return f"({print_formula(f.left)} | {print_formula(f.right)})"
    if isinstance(f, Exists):
        return f"ex {f.var}. {print_formula(f.body)}"
    if isinstance(f, Forall):
        return f"all {f.var}. {print_formula(f.body)}"
    raise TypeError(f)


# -- semantics ---------------------------------------------------------------


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, (Adj, Eq)):
        return frozenset({f.x, f.y})
    if isinstance(f, Col):
        return frozenset({f.x})
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f)


def evaluate(f: Formula, g: ColoredGraph,
             assignment: Optional[Mapping[str, int]] = None) -> bool:
    """Standard truth over g; assignment must cover the free variables."""
    env: dict[str, int] = dict(assignment or {})
    missing = free_variables(f) - env.keys()
    if missing:
        raise UnboundVariableError(f"unbound variables: {', '.join(sorted(missing))}")

    def go(f: Formula) -> bool:
        if isinstance(f, Adj):
            return g.has_edge(env[f.x], env[f.y])
        if isinstance(f, Eq):
            return env[f.x] == env[f.y]
        if isinstance(f, Col):
            return f.color in g.colors[env[f.x]]
        if isinstance(f, Not):
            return not go(f.body)
        if isinstance(f, And):
            return go(f.left) and go(f.right)
        if isinstance(f, Or):
            return go(f.left) or go(f.right)
        if isinstance(f, (Exists, Forall)):
            shadowed = env.get(f.var)
            had = f.var in env
            hits = 0
            for v in range(g.n):
                env[f.var] = v
                val = go(f.body)
                if isinstance(f, Exists) and val:
                    hits = 1
                    break
                if isinstance(f, Forall) and not val:
                    hits = -1
                    break
            if had:
                env[f.var] = shadowed
            else:
                env.pop(f.var, None)
            if isinstance(f, Exists):
                return hits == 1
            return hits != -1
        raise TypeError(f)

    return go(f)


# -- rank / alternation analysis ---------------------------------------------


@dataclass(frozen=True)
class FormulaProfile:
    quantifier_rank: int
    alternation_number: int
    is_nnf: bool
    nest_summary: Optional[frozenset[str]]


_FLIP = str.maketrans("EA", "AE")


def quantifier_rank(f: Formula) -> int:
    if isinstance(f, _ATOMS):
        return 0
    if isinstance(f, Not):
        return quantifier_rank(f.body)
    if isinstance(f, (And, Or)):
        return max(quantifier_rank(f.left), quantifier_rank(f.right))
    return 1 + quantifier_rank(f.body)


def _alt3(f: Formula) -> tuple[bool, Optional[int], Optional[int]]:
    """(epsilon present, max alternations over sequences starting with E,
    same for A); None when no sequence starts with that quantifier."""
    if isinstance(f, _ATOMS):
        return (True, None, None)
    if isinstance(f, Not):
        eps, me, ma = _alt3(f.body)
        return (eps, ma, me)
    if isinstance(f, (And, Or)):
        e1, me1, ma1 = _alt3(f.left)
        e2, me2, ma2 = _alt3(f.right)
        pick = lambda a, b: (max(a, b) if a is not None and b is not None
                             else (a if a is not None else b))
        return (e1 or e2, pick(me1, me2), pick(ma1, ma2))
    eps, me, ma = _alt3(f.body)
    cands = []
    if eps:
        cands.append(0)
    if isinstance(f, Exists):
        if me is not None:
            cands.append(me)
        if ma is not None:
            cands.append(ma + 1)
        return (False, max(cands), None)
    if me is not None:
        cands.append(me + 1)
    if ma is not None:
        cands.append(ma)
    return (False, None, max(cands))


def alternation_number(f: Formula) -> int:
    eps, me, ma = _alt3(f)
    vals = [v for v in (0 if eps else None, me, ma) if v is not None]
    return max(vals)


def is_nnf(f: Formula) -> bool:
    """Negation occurs only directly on atoms."""
    if isinstance(f, _ATOMS):
        return True
    if isinstance(f, Not):
        return isinstance(f.body, _ATOMS)
    if isinstance(f, (And, Or)):
        return is_nnf(f.left) and is_nnf(f.right)
    return is_nnf(f.body)


def nest_set(f: Formula, cap: int = 4096) -> Optional[frozenset[str]]:
    """The set of nested-quantifier sequences ('E'/'A' strings), or None when
    it would exceed cap elements (it can be exponential in formula size)."""
    def go(f: Formula) -> Optional[frozenset[str]]:
        if isinstance(f, _ATOMS):
            return frozenset({""})
        if isinstance(f, Not):
            s = go(f.body)
            return None if s is None else frozenset(x.translate(_FLIP) for x in s)
        if isinstance(f, (And, Or)):
            a, b = go(f.left), go(f.right)
            if a is None or b is None:
                return None
            u = a | b
            return u if len(u) <= cap else None
        s = go(f.body)
        if s is None:
            return None
        q = "E" if isinstance(f, Exists) else "A"
        return frozenset(q + x for x in s)

    return go(f)


def analyze(f: Formula, nest_cap: int = 4096) -> FormulaProfile:
    """Rank, alternation number, NNF flag and (when small) the nest set."""
    return FormulaProfile(
        quantifier_rank=quantifier_rank(f),
        alternation_number=alternation_number(f),
        is_nnf=is_nnf(f),
        nest_summary=nest_set(f, cap=nest_cap),
    )
