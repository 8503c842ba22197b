"""First-order formulas over adjacency, equality and vertex colors.

Connectives are exactly negation, conjunction and disjunction, plus the two
quantifiers.  Concrete syntax (binary applications always parenthesized,
quantifiers extend maximally to the right):

    ex x. all y. (~eq(x,y) | adj(x,y))
    col(3,x)

Identifiers match [a-z][a-z0-9_]* and may not be the reserved words
ex, all, adj, eq, col.

Nodes are hash-consed, so equality and hash are identity.  The intern table
takes no lock: fodef runs one thread.  Every traversal but `evaluate` is
iterative, so a formula thousands of levels deep (`conjunction` builds
left-deep chains) can be parsed, printed, pickled and analyzed.  The walks
dispatch on the exact node type: any object that is not one of the eight node
classes, a subclass included, raises TypeError.  `evaluate` recurses only
through quantifiers, negations and alternations between And and Or: it reads
a chain of one connective as one n-ary node, so a long chain costs it no
depth.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Optional, Union

from fodef.graphs import ColoredGraph


class FormulaError(ValueError):
    """Syntax or scoping problem in a formula."""


class UnboundVariableError(FormulaError):
    pass


_TABLE = weakref.WeakValueDictionary()    # (type, *fields) -> the live node


class _Node:
    """Hash-consing (Filliâtre & Conchon, 2006): one node per type and fields."""

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs:
            args += tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            _check_atoms(cls, args)
            node = _TABLE[key] = object.__new__(cls)
            node.__dict__.update(zip(names, args))
        return node

    def __reduce__(self):
        # the printed text, so that neither pickling nor unpickling recurses
        return parse_formula, (print_formula(self),)

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        return f"parse_formula({print_formula(self)!r})"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Adj(_Node):
    x: str
    y: str


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Eq(_Node):
    x: str
    y: str


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Col(_Node):
    color: int
    x: str

    def __new__(cls, *args, **kwargs):
        # checked before the intern lookup, which takes 3.0 and True for 3 and 1
        color = args[0] if args else kwargs.get("color", 0)
        if type(color) is not int or color < 0:
            raise FormulaError(f"a color must be a non-negative int, got {color!r}")
        return _Node.__new__(cls, *args, **kwargs)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Exists(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Forall(_Node):
    var: str
    body: "Formula"


Formula = Union[Adj, Eq, Col, Not, And, Or, Exists, Forall]

_ATOMS = (Adj, Eq, Col)
_RESERVED = {"ex", "all", "adj", "eq", "col"}
_IDENT = re.compile(r"[a-z][a-z0-9_]*")


def _check_atoms(cls: type, args: tuple) -> None:
    """Reject a variable name outside the grammar, so that every node prints
    to text that parses back."""
    if cls is Col:
        names = args[1:]  # the color is checked by Col.__new__
    elif cls is Adj or cls is Eq:
        names = args
    elif cls is Exists or cls is Forall:
        names = args[:1]
    else:
        return
    for name in names:
        if type(name) is not str or not _IDENT.fullmatch(name) or name in _RESERVED:
            raise FormulaError(f"{name!r} is not a variable name")


def conjunction(parts: list[Formula]) -> Formula:
    if not parts:
        raise FormulaError("empty conjunction")
    return reduce(And, parts)


def disjunction(parts: list[Formula]) -> Formula:
    if not parts:
        raise FormulaError("empty disjunction")
    return reduce(Or, parts)


# -- traversal -----------------------------------------------------------------


def _postorder(f: Formula) -> list:
    """The nodes of f, children before parents and left before right, found
    with an explicit stack (the mirrored pre-order, reversed)."""
    order, stack = [], [f]
    pop, push, emit = stack.pop, stack.append, order.append
    while stack:
        node = pop()
        emit(node)
        t = type(node)
        if t is And or t is Or:
            push(node.left)
            push(node.right)
        elif t is Not or t is Exists or t is Forall:
            push(node.body)
        elif t is not Adj and t is not Eq and t is not Col:
            raise TypeError(type(node))
    order.reverse()
    return order


def _fold(f: Formula, step):
    """f folded bottom-up: each node's value is step(node, *the values of its
    children), and the root's value is returned."""
    values: list = []
    for node in _postorder(f):
        t = type(node)
        if t is And or t is Or:
            right = values.pop()
            values[-1] = step(node, values[-1], right)
        elif t is Not or t is Exists or t is Forall:
            values[-1] = step(node, values[-1])
        else:
            values.append(step(node))
    return values[0]


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(rf"\s*({_IDENT.pattern}|[0-9]+|[().,&|~])")


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
    """The concrete syntax of f, emitted piece by piece in one pre-order pass
    on an explicit stack (a string on it is a piece waiting its turn) and
    joined once, so the time is linear in the text."""
    pieces, stack = [], [f]
    pop, push, emit = stack.pop, stack.extend, pieces.append
    while stack:
        node = pop()
        t = type(node)
        if t is str:
            emit(node)
        elif t is And or t is Or:
            push((")", node.right, " & " if t is And else " | ", node.left, "("))
        elif t is Not:
            push((node.body, "~"))
        elif t is Exists or t is Forall:
            push((node.body, f"{'ex' if t is Exists else 'all'} {node.var}. "))
        elif t is Col:
            emit(f"col({node.color},{node.x})")
        elif t is Adj or t is Eq:
            emit(f"{'adj' if t is Adj else 'eq'}({node.x},{node.y})")
        else:
            raise TypeError(type(node))
    return "".join(pieces)


# -- semantics ---------------------------------------------------------------


def free_variables(f: Formula) -> frozenset[str]:
    """The free variables of f, kept on the node: nodes are hash-consed, so
    the walk runs once per formula object."""
    fv = vars(f).get("_free_variables")   # TypeError for an object without a dict
    if fv is None:
        def step(node, a=None, b=None):
            t = type(node)
            if t is And or t is Or:
                return a | b
            if t is Exists or t is Forall:
                return a - {node.var}
            if t is Not:
                return a
            return frozenset((node.x,) if t is Col else (node.x, node.y))

        fv = f.__dict__["_free_variables"] = _fold(f, step)
    return fv


def _operands(f: Formula) -> list:
    """The operands of f's maximal chain of its connective, found with an
    explicit stack: the literals (atoms and negated atoms) first, then the
    other operands, each group left to right."""
    t = type(f)
    literals, others, stack = [], [], [f]
    while stack:
        node = stack.pop()
        u = type(node)
        if u is t:
            stack.append(node.right)
            stack.append(node.left)
        elif u in _ATOMS or (u is Not and type(node.body) in _ATOMS):
            literals.append(node)
        else:
            others.append(node)
    return literals + others


def evaluate(f: Formula, g: ColoredGraph,
             assignment: Optional[Mapping[str, int]] = None) -> bool:
    """Standard truth over g; assignment must cover the free variables.

    An And or Or node stands for its chain's `_operands`, kept for the call:
    a reply the synthesizer has won is a literal, and settles its chain
    before a quantifier is expanded.  Every variable is bound up front and a
    connective has no side effect, so the value is that of reading the chain
    in order.  The recursion depth is the nesting of quantifiers, negations
    and alternations between And and Or."""
    env: dict[str, int] = dict(assignment or {})
    missing = free_variables(f) - env.keys()
    if missing:
        raise UnboundVariableError(f"unbound variables: {', '.join(sorted(missing))}")
    adj, colors, n = g.adj, g.colors, g.n
    chains: dict = {}

    def go(f: Formula) -> bool:
        t = type(f)
        if t is And or t is Or:
            parts = chains.get(f)
            if parts is None:
                parts = chains[f] = _operands(f)
            return all(map(go, parts)) if t is And else any(map(go, parts))
        if t is Exists or t is Forall:
            var, body = f.var, f.body
            had = var in env
            shadowed = env.get(var)
            settles = t is Exists    # the body value that decides the quantifier
            result = not settles
            for v in range(n):
                env[var] = v
                if go(body) is settles:
                    result = settles
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
        return f.color in colors[env[f.x]]  # free_variables checked the types

    return go(f)


# -- rank / alternation analysis ---------------------------------------------


@dataclass(frozen=True)
class FormulaProfile:
    quantifier_rank: int
    alternation_number: int
    is_nnf: bool
    nest_summary: Optional[frozenset[str]]


_FLIP = str.maketrans("EA", "AE")


def analyze(f: Formula, nest_cap: int = 4096) -> FormulaProfile:
    """Rank, alternation number, NNF flag (negation only on atoms) and nest
    set in one pass.  The nest set of nested-quantifier sequences ('E'/'A'
    strings) is None once a conjunction or disjunction would give it more
    than nest_cap elements.  Alternations are counted per first quantifier:
    the most along a sequence that starts with E, and with A (-1: none)."""
    atom = (0, -1, -1, True, frozenset(("",)))

    def step(node, a=None, b=None):
        t = type(node)
        if a is None:  # an atom
            return atom
        rank, alt_e, alt_a, nnf, nest = a
        if t is And or t is Or:
            nest = None if nest is None or b[4] is None else nest | b[4]
            if nest is not None and len(nest) > nest_cap:
                nest = None
            return (max(rank, b[0]), max(alt_e, b[1]), max(alt_a, b[2]),
                    nnf and b[3], nest)
        if t is Not:
            if nest is not None:
                nest = frozenset(x.translate(_FLIP) for x in nest)
            return (rank, alt_a, alt_e, type(node.body) in _ATOMS, nest)
        if nest is not None:
            nest = frozenset(("E" if t is Exists else "A") + x for x in nest)
        if t is Exists:
            return (rank + 1, max(alt_e, alt_a + 1), -1, nnf, nest)
        return (rank + 1, -1, max(alt_a, alt_e + 1), nnf, nest)

    rank, alt_e, alt_a, nnf, nest = _fold(f, step)
    return FormulaProfile(rank, max(alt_e, alt_a, 0), nnf, nest)


def quantifier_rank(f: Formula) -> int:
    return analyze(f, nest_cap=0).quantifier_rank


def alternation_number(f: Formula) -> int:
    return analyze(f, nest_cap=0).alternation_number
