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

_TOKEN = re.compile(r"\s*([a-z][a-z0-9_]*|[0-9]+|[().,&|~])")


def _tokenize(text: str) -> list[str]:
    """The tokens of text: identifiers and keywords, numbers and symbols."""
    tokens = _TOKEN.findall(text)
    # findall skips what no token matches, so the tokens cover the text's
    # non-space characters exactly when it holds no stray character
    if "".join(tokens) != "".join(text.split()):
        pos = 0
        while m := _TOKEN.match(text, pos):
            pos = m.end()
        raise FormulaError(f"unexpected character {text[pos:].strip()[0]!r} at position {pos}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def at(self, i: int) -> str:
        """Token i and its position in the text, for an error message."""
        pos = [m.start(1) for m in _TOKEN.finditer(self.text)][i]
        return f"{self.tokens[i]!r} at position {pos}"

    def take(self, value: Optional[str] = None) -> str:
        i = self.i
        if i == len(self.tokens):
            raise FormulaError("unexpected end of input")
        tok = self.tokens[i]
        if value is not None and tok != value:
            raise FormulaError(f"expected {value!r}, found {self.at(i)}")
        self.i = i + 1
        return tok

    def ident(self) -> str:
        tok = self.take()
        if not tok[0].islower() or tok in _RESERVED:
            raise FormulaError(f"expected identifier, found {self.at(self.i - 1)}")
        return tok

    def formula(self) -> Formula:
        """One formula, read left to right in a single loop: quantifier
        prefixes, negations and open parentheses wait on an explicit stack
        until the formula they apply to is complete."""
        stack: list = []    # (Exists|Forall, var), (Not, None), ("(", None), (And|Or, left)
        while True:
            value = self.take()
            if value == "ex" or value == "all":
                var = self.ident()
                self.take(".")
                stack.append((Exists if value == "ex" else Forall, var))
                continue
            if value == "~":
                stack.append((Not, None))
                continue
            if value == "(":
                stack.append(("(", None))
                continue
            if value in ("adj", "eq"):
                self.take("(")
                a = self.ident()
                self.take(",")
                b = self.ident()
                self.take(")")
                f = Adj(a, b) if value == "adj" else Eq(a, b)
            elif value == "col":
                self.take("(")
                num = self.take()
                if not num[0].isdigit():
                    raise FormulaError(f"expected color id, found {self.at(self.i - 1)}")
                self.take(",")
                a = self.ident()
                self.take(")")
                f = Col(int(num), a)
            else:
                raise FormulaError(f"unexpected token {self.at(self.i - 1)}")
            # f is complete: apply what waits on it, up to an open parenthesis
            # that now has its left operand
            while stack:
                head, arg = stack[-1]
                if head == "(":
                    op = self.take()
                    if op != "&" and op != "|":
                        raise FormulaError(f"expected '&' or '|', found {self.at(self.i - 1)}")
                    stack[-1] = (And if op == "&" else Or, f)
                    break
                stack.pop()
                if head is Not:
                    f = Not(f)
                    continue
                if head is And or head is Or:
                    self.take(")")
                f = head(arg, f)
            else:
                return f


def parse_formula(text: str, strict: bool = False) -> Formula:
    """Parse concrete syntax; with strict=True, free variables are an error."""
    p = _Parser(text)
    f = p.formula()
    if p.i < len(p.tokens):
        raise FormulaError(f"trailing input {p.at(p.i)}")
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
    """Standard truth over g; assignment must cover the free variables.
    Nodes are dispatched on their exact type, one of the eight node classes
    above, so any other object (a subclass of one included) raises
    TypeError."""
    env: dict[str, int] = dict(assignment or {})
    missing = free_variables(f) - env.keys()
    if missing:
        raise UnboundVariableError(f"unbound variables: {', '.join(sorted(missing))}")
    adj, colors, n = g.adj, g.colors, g.n

    def go(f: Formula) -> bool:
        t = type(f)
        if t is And:
            return go(f.left) and go(f.right)
        if t is Or:
            return go(f.left) or go(f.right)
        if t is Exists or t is Forall:
            var, body = f.var, f.body
            had = var in env
            shadowed = env.get(var)
            if t is Exists:
                result = False
                for v in range(n):
                    env[var] = v
                    if go(body):
                        result = True
                        break
            else:
                result = True
                for v in range(n):
                    env[var] = v
                    if not go(body):
                        result = False
                        break
            if had:
                env[var] = shadowed
            else:
                env.pop(var, None)
            return result
        if t is Not:
            return not go(f.body)
        if t is Adj:
            return env[f.y] in adj[env[f.x]]
        if t is Eq:
            return env[f.x] == env[f.y]
        if t is Col:
            return f.color in colors[env[f.x]]
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
