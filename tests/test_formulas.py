import copy
import dataclasses
import pickle
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from fodef import formulas as F
from fodef.formulas import (
    Adj, And, Col, Eq, Exists, Forall, Not, Or,
    FormulaError, UnboundVariableError,
    alternation_number, analyze, conjunction, evaluate, parse_formula,
    print_formula, quantifier_rank,
)
from fodef.graphs import ColoredGraph

from helpers import brute_nest


# -- references: the isinstance evaluator and the recursive-descent parser, with
# the match-by-match tokenizer ----------------------------------------------------


def reference_evaluate(f, g, assignment=None):
    env = dict(assignment or {})
    missing = F.free_variables(f) - env.keys()
    if missing:
        raise UnboundVariableError(f"unbound variables: {', '.join(sorted(missing))}")

    def go(f):
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


REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<id>[a-z][a-z0-9_]*)|(?P<num>[0-9]+)|(?P<sym>[().,&|~]))")


def reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = REFERENCE_TOKEN.match(text, pos)
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


class ReferenceParser:
    def __init__(self, text):
        self.tokens = reference_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, value=None):
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        if value is not None and tok[1] != value:
            raise FormulaError(f"expected {value!r}, found {tok[1]!r} at position {tok[2]}")
        self.i += 1
        return tok

    def ident(self):
        tok = self.take()
        if tok[0] != "id" or tok[1] in F._RESERVED:
            raise FormulaError(f"expected identifier, found {tok[1]!r} at position {tok[2]}")
        return tok[1]

    def formula(self):
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


def reference_parse(text):
    p = ReferenceParser(text)
    f = p.formula()
    tok = p.peek()
    if tok is not None:
        raise FormulaError(f"trailing input {tok[1]!r} at position {tok[2]}")
    return f


def outcome(parse, text):
    """The parsed formula, or the class and message of the error raised."""
    try:
        return parse(text)
    except FormulaError as exc:
        return type(exc), str(exc)


def cycle(n):
    return ColoredGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return ColoredGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


VARS = ["x", "y", "z"]


@st.composite
def asts(draw, depth=4):
    if depth == 0:
        kind = draw(st.sampled_from(["adj", "eq", "col"]))
        if kind == "col":
            return Col(draw(st.integers(0, 3)), draw(st.sampled_from(VARS)))
        a, b = draw(st.sampled_from(VARS)), draw(st.sampled_from(VARS))
        return Adj(a, b) if kind == "adj" else Eq(a, b)
    kind = draw(st.sampled_from(["atom", "not", "and", "or", "ex", "all"]))
    if kind == "atom":
        return draw(asts(depth=0))
    if kind == "not":
        return Not(draw(asts(depth=depth - 1)))
    if kind in ("and", "or"):
        l, r = draw(asts(depth=depth - 1)), draw(asts(depth=depth - 1))
        return And(l, r) if kind == "and" else Or(l, r)
    v = draw(st.sampled_from(VARS))
    body = draw(asts(depth=depth - 1))
    return Exists(v, body) if kind == "ex" else Forall(v, body)


@st.composite
def mixed_chains(draw, depth=2):
    """A conjunction or disjunction of literals and quantified parts in a
    shuffled order, each quantified part's body a mixed chain again."""
    def literal():
        atom = draw(asts(depth=0))
        return Not(atom) if draw(st.booleans()) else atom

    def quantified():
        body = draw(mixed_chains(depth - 1)) if depth > 1 else literal()
        q = Exists if draw(st.booleans()) else Forall
        return q(draw(st.sampled_from(VARS)), body)

    parts = [literal() for _ in range(draw(st.integers(1, 5)))]
    parts += [quantified() for _ in range(draw(st.integers(1, 3)))]
    parts = draw(st.permutations(parts))
    join = conjunction if draw(st.booleans()) else F.disjunction
    return join(parts)


@st.composite
def colored_graphs(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())]
    colors = [draw(st.sets(st.integers(0, 3), max_size=2)) for _ in range(n)]
    return ColoredGraph.build(n, edges, colors)


# pieces a corrupted text may gain: every token kind, keywords included
NOISE = ["(", ")", "~", "&", "|", ".", ",", "x", "y", "7", "ex", "all", "adj",
         "eq", "col", "ex x.", "adj(x,y)", "$", " "]


@st.composite
def damaged_texts(draw):
    """A printed formula, cut short, or with up to three characters or
    pieces dropped, inserted or replaced."""
    text = print_formula(draw(asts(depth=4)))
    if draw(st.booleans()):
        return text[:draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(0, 4)))
        piece = draw(st.sampled_from(NOISE)) if draw(st.booleans()) else ""
        text = text[:i] + piece + text[j:]
    return text


class TestParser:
    def test_basic(self):
        f = parse_formula("ex x. ex y. (~eq(x,y) & ~adj(x,y))")
        assert f == Exists("x", Exists("y", And(Not(Eq("x", "y")), Not(Adj("x", "y")))))
        assert quantifier_rank(f) == 2

    def test_irreflexive_universal(self):
        f = parse_formula("all z. adj(z,z)")
        assert not evaluate(f, cycle(4))
        assert not evaluate(f, complete(3))

    def test_unbalanced(self):
        with pytest.raises(FormulaError):
            parse_formula("ex x. (adj(x,y)")

    def test_strict_rejects_free_variables(self):
        with pytest.raises(UnboundVariableError):
            parse_formula("adj(x,y)", strict=True)
        parse_formula("ex x. ex y. adj(x,y)", strict=True)

    def test_reserved_words_not_identifiers(self):
        with pytest.raises(FormulaError):
            parse_formula("ex adj. eq(adj,adj)")

    def test_binary_requires_parens(self):
        with pytest.raises(FormulaError):
            parse_formula("adj(x,y) & eq(x,y)")

    @given(asts(depth=6))
    @settings(max_examples=150, deadline=None)
    def test_parse_print_roundtrip(self, f):
        assert parse_formula(print_formula(f)) == f

    @given(asts(depth=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_printed_asts(self, f):
        text = print_formula(f)
        assert parse_formula(text) == reference_parse(text)

    @given(damaged_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_damaged_texts(self, text):
        assert outcome(parse_formula, text) == outcome(reference_parse, text)

    def test_error_messages(self):
        # one case per message, each checked against the reference
        cases = {
            "": "unexpected end of input",
            "(adj(x,y) & eq(x,y)": "unexpected end of input",
            "ex x adj(x,x)": "expected '.', found 'adj' at position 5",
            "ex eq. adj(x,x)": "expected identifier, found 'eq' at position 3",
            "(adj(x,y) ~ eq(x,y))": "expected '&' or '|', found '~' at position 10",
            "(adj(x,y) & eq(x,y) & adj(y,y))": "expected ')', found '&' at position 20",
            "col(x,y)": "expected color id, found 'x' at position 4",
            "x": "unexpected token 'x' at position 0",
            "~eq(x,y) x": "trailing input 'x' at position 9",
            "adj(x,y) $": "unexpected character '$' at position 8",
        }
        for text, message in cases.items():
            assert outcome(parse_formula, text) == (FormulaError, message)
            assert outcome(reference_parse, text) == (FormulaError, message)

    def test_deep_nesting_parses_without_recursion(self):
        depth = 1500
        text = "(" * depth + "adj(x,y)" + " & eq(x,y))" * depth
        f = parse_formula(text)
        # the shape by hand, apart from ==
        levels = 0
        while isinstance(f, And):
            assert f.right == Eq("x", "y")
            f = f.left
            levels += 1
        assert levels == depth
        assert f == Adj("x", "y")

    def test_deep_prefixes_parse_without_recursion(self):
        depth = 1500
        f = parse_formula("~ex x. " * depth + "eq(x,x)")
        levels = 0
        while isinstance(f, Not):
            assert isinstance(f.body, Exists) and f.body.var == "x"
            f = f.body.body
            levels += 1
        assert levels == depth
        assert f == Eq("x", "x")

    def test_deep_parses_compare_and_hash(self):
        depth = 1500
        text = "(" * depth + "adj(x,y)" + " & eq(x,y))" * depth
        f, g = parse_formula(text), parse_formula(text)
        assert f is g
        assert f == g and not f != g
        assert hash(f) == hash(g)
        other = parse_formula(text.replace("adj(x,y)", "adj(y,x)", 1))
        assert f != other and not f == other
        assert len({f, g, other}) == 2


class TestInterning:
    def test_equal_construction_returns_the_live_node(self):
        live, one = Col(3, "x"), Col(1, "x")
        # the color is checked though an equal int node lives: 3.0 == 3 and
        # True == 1 compare and hash equal, as in a fresh process
        for color in (3.0, True):
            with pytest.raises(FormulaError):
                Col(color, "x")
        assert Col(1, "x") is one
        assert print_formula(live) == "col(3,x)"
        assert Col(color=3, x="x") is live and Col(3, x="x") is live
        f = parse_formula("ex x. (col(3,x) & ~adj(x,y))")
        assert Exists(var="x", body=f.body) is f
        assert dataclasses.replace(f, var="x") is f
        assert copy.copy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        with pytest.raises(TypeError):
            Adj("x")
        with pytest.raises(TypeError):
            Adj("x", x="y")

    @pytest.mark.parametrize("make", [
        lambda: Exists("ex", Eq("x", "y")),
        lambda: Eq("0", "y"),
        lambda: Adj("x", "Y"),
        lambda: Forall("v-1", Adj("x", "y")),
        lambda: Col(7, "col"),
        lambda: Col(-1, "x"),
        lambda: Col(2.5, "x"),
        lambda: Col("3", "x"),
        lambda: Eq("x", 3),
    ], ids=["reserved-var", "digit", "upper", "dash", "reserved-atom",
            "negative-color", "float-color", "text-color", "int-name"])
    def test_names_outside_the_grammar_raise(self, make):
        # such a node would print to text that does not parse, so neither
        # its repr nor a pickle round trip would work
        with pytest.raises(FormulaError):
            make()

    def test_grammar_names_round_trip(self):
        f = Exists("v1", Forall("y_2", And(Col(0, "v1"), Not(Eq("v1", "y_2")))))
        assert parse_formula(print_formula(f)) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert eval(repr(f), {"parse_formula": parse_formula}) is f


class TestEvaluate:
    def test_nonadjacent_pair_exists(self):
        f = parse_formula("ex x. ex y. (~eq(x,y) & ~adj(x,y))")
        assert evaluate(f, cycle(4))
        assert not evaluate(f, complete(3))

    def test_color_atom(self):
        g = ColoredGraph.build(3, [(0, 1)], [[], [1], []])
        assert evaluate(parse_formula("ex x. col(1,x)"), g)
        assert not evaluate(parse_formula("ex x. col(2,x)"), g)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_formula("adj(x,y)"), cycle(3), {"x": 0})
        # the literal settles the disjunction before the quantified part is
        # read, and its unbound w is still reported
        f = parse_formula("(eq(x,x) | ex y. adj(y,w))")
        with pytest.raises(UnboundVariableError, match="w"):
            evaluate(f, cycle(3), {"x": 0})

    def test_free_variables_walk_once_per_formula(self, monkeypatch):
        folds = 0
        fold = F._fold

        def counting_fold(*args):
            nonlocal folds
            folds += 1
            return fold(*args)

        monkeypatch.setattr(F, "_fold", counting_fold)
        f = parse_formula("ex v7. all v8. (adj(v7,v8) | eq(v7,v8))", strict=True)
        assert folds == 1
        assert evaluate(f, cycle(3)) and evaluate(f, complete(4))
        assert F.free_variables(f) == frozenset() and folds == 1
        for bad in (3, "adj(x,y)", None):
            with pytest.raises(TypeError):
                F.free_variables(bad)

    def test_assignment_and_shadowing(self):
        f = parse_formula("ex x. adj(x,y)")
        assert evaluate(f, cycle(3), {"y": 0})
        shadow = parse_formula("ex x. ex x. eq(x,x)")
        assert evaluate(shadow, cycle(3))

    @given(asts(depth=4), colored_graphs(),
           st.lists(st.integers(0, 3), min_size=len(VARS), max_size=len(VARS)))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, f, g, picks):
        # every variable is assigned, so each quantifier shadows a binding
        env = {v: p % g.n for v, p in zip(VARS, picks)}
        before = dict(env)
        assert evaluate(f, g, env) == reference_evaluate(f, g, env)
        assert env == before
        closed = Forall("x", Exists("y", Forall("z", f)))
        assert evaluate(closed, g) == reference_evaluate(closed, g)

    def test_unknown_node_raises_type_error(self):
        class Negation(Not):
            pass

        with pytest.raises(TypeError):
            evaluate(Negation(Eq("x", "x")), cycle(3), {"x": 0})

    @given(mixed_chains(), colored_graphs(),
           st.lists(st.integers(0, 3), min_size=len(VARS), max_size=len(VARS)))
    @settings(max_examples=300, deadline=None)
    def test_mixed_chains_match_reference(self, f, g, picks):
        # literals shuffled among quantified parts, where the literal-first
        # order differs most from reading the chain in order
        env = {v: p % g.n for v, p in zip(VARS, picks)}
        assert evaluate(f, g, env) == reference_evaluate(f, g, env)
        closed = Exists("x", Forall("y", Exists("z", f)))
        assert evaluate(closed, g) == reference_evaluate(closed, g)

    @given(asts(depth=3), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_isomorphism_invariance(self, f, shift):
        fv = sorted(F.free_variables(f))
        g = cycle(5)
        perm = [(v + shift) % 5 for v in range(5)]
        h = ColoredGraph.build(5, [(perm[u], perm[v]) for u, v in g.edges()])
        env_g = {v: i for i, v in enumerate(fv)}
        env_h = {v: perm[i] for i, v in enumerate(fv)}
        assert evaluate(f, g, env_g) == evaluate(f, h, env_h)


class TestAnalyze:
    def test_spec_nest_examples(self):
        f = Exists("x", And(Adj("x", "y"), Forall("z", Not(Adj("x", "z")))))
        prof = analyze(f)
        assert prof.nest_summary == frozenset({"E", "EA"})
        assert prof.quantifier_rank == 2
        assert prof.alternation_number == 1
        assert prof.is_nnf

        g = Not(Exists("x", Forall("y", Adj("x", "y"))))
        prof = analyze(g)
        assert prof.nest_summary == frozenset({"AE"})
        assert prof.quantifier_rank == 2
        assert prof.alternation_number == 1
        assert not prof.is_nnf

        atom = Eq("x", "y")
        prof = analyze(atom)
        assert prof.nest_summary == frozenset({""})
        assert prof.quantifier_rank == 0
        assert prof.alternation_number == 0

    @given(asts())
    @settings(max_examples=200, deadline=None)
    def test_nest_matches_inductive_definition(self, f):
        assert analyze(f).nest_summary == frozenset(brute_nest(f))

    @given(asts())
    @settings(max_examples=200, deadline=None)
    def test_rank_and_alternation_from_nest(self, f):
        nest = brute_nest(f)
        assert quantifier_rank(f) == max(len(s) for s in nest)
        want = max(s.count("EA") + s.count("AE") for s in nest)
        assert alternation_number(f) == want

    @given(asts())
    @settings(max_examples=100, deadline=None)
    def test_negation_preserves_rank_and_alternation(self, f):
        assert quantifier_rank(Not(f)) == quantifier_rank(f)
        assert alternation_number(Not(f)) == alternation_number(f)

    def test_nest_cap(self):
        f = Eq("x", "x")
        for i in range(14):
            f = And(Exists(f"v{i}", f), Forall(f"w{i}", f))
        prof = analyze(f, nest_cap=64)
        assert prof.nest_summary is None
        assert prof.quantifier_rank == 14

    def test_unknown_node_raises_type_error(self):
        class Negation(Not):
            pass

        f = Exists("x", And(Eq("x", "x"), Negation(Adj("x", "x"))))
        for walk in (print_formula, F.free_variables, quantifier_rank,
                     alternation_number, analyze):
            with pytest.raises(TypeError):
                walk(f)
        with pytest.raises(TypeError):
            analyze(And(Eq("x", "x"), "adj(x,x)"))


DEPTH = 3000


class TestDepth:
    """Each traversal but evaluate runs without recursion: a formula
    DEPTH levels deep is printed, parsed back, compared, copied, pickled,
    shown by repr and analyzed.  evaluate recurses through the nesting of
    quantifiers, negations and alternations between And and Or, so it also
    reads a DEPTH-part chain."""

    def check(self, f, text, free, profile, nest):
        assert print_formula(f) == text
        assert F.free_variables(f) == free
        assert quantifier_rank(f) == profile.quantifier_rank
        assert alternation_number(f) == profile.alternation_number
        assert analyze(f, nest_cap=0) == profile
        assert analyze(f) == F.FormulaProfile(
            profile.quantifier_rank, profile.alternation_number,
            profile.is_nnf, nest)
        back = parse_formula(text)
        assert back == f and hash(back) == hash(f)
        assert back is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert text in repr(f)

    def test_long_conjunction(self):
        parts = [Adj("x", "y") if i % 2 else Not(Eq("x", "z"))
                 for i in range(DEPTH)]
        f = Exists("x", conjunction(parts))
        text = ("ex x. " + "(" * (DEPTH - 1) + "~eq(x,z)"
                + "".join(f" & {print_formula(p)})" for p in parts[1:]))
        # the first conjunction already exceeds a nest cap of 0
        self.check(f, text, frozenset({"y", "z"}),
                   F.FormulaProfile(1, 0, True, None), frozenset({"E"}))
        # x = 4 is next to y = 0 and apart from z = 1 in the 5-cycle
        assert evaluate(f, cycle(5), {"y": 0, "z": 1}) is True
        every = Forall("x", conjunction(parts))
        assert evaluate(every, cycle(5), {"y": 0, "z": 1}) is False

    def test_negated_quantifier_chain(self):
        f = Eq("x", "x")
        for _ in range(DEPTH):
            f = Not(Exists("x", f))
        # the one nest sequence alternates A, E, A, ... from the outside in
        nest = frozenset({"AE" * (DEPTH // 2)})
        self.check(f, "~ex x. " * DEPTH + "eq(x,x)", frozenset(),
                   F.FormulaProfile(DEPTH, DEPTH - 1, False, nest), nest)

    def test_print_formula_is_linear(self):
        # a quadruple-length conjunction prints in well under 16 times the
        # time, as a printer that copies each child's string would take
        def best_of_3(n):
            f = conjunction([Adj("x", "y")] * n)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                print_formula(f)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_3(64000) < 8 * best_of_3(16000)
