from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tracedistill.codegen import generate_program
from tracedistill.dsl import BUILTIN_CALLABLES, MAX_INT, TOOL_METHODS, parse
from tracedistill.errors import DslSyntaxError, LexError
from tracedistill.interp import execute
from tracedistill.scenes import generate_queries, generate_scenes

from .conftest import make_muffin_scene


def assert_tree(ast):
    """The shape the parser alone decides: each node's id is its index, the
    root is the Entry node, and every other id is exactly one node's child."""
    assert [n.id for n in ast.nodes] == list(range(len(ast.nodes)))
    assert ast.node(ast.root).kind == "Entry"
    children = sorted(c for n in ast.nodes for c in n.children)
    assert children == sorted(set(range(len(ast.nodes))) - {ast.root})


def sexpr(ast, node_id):
    """A tree of names, operators and attributes as an s-expression."""
    node = ast.node(node_id)
    if node.kind == "Name":
        return node.payload["id"]
    label = node.payload["attr" if node.kind == "Attribute" else "op"]
    return "(" + " ".join([label] + [sexpr(ast, c) for c in node.children]) + ")"


class TestParse:
    def test_smallest_program(self):
        ast = parse("x = 1\nreturn x")
        root = ast.node(ast.root)
        assert root.kind == "Entry"
        kinds = [ast.node(c).kind for c in root.children]
        assert kinds == ["Assign", "Return"]

    def test_if_with_trailing_return(self):
        ast = parse("if a == 1:\n    return 'yes'\nreturn 'no'")
        root = ast.node(ast.root)
        kinds = [ast.node(c).kind for c in root.children]
        assert kinds == ["If", "Return"]
        if_node = ast.node(root.children[0])
        assert if_node.payload["arm_stmt_counts"] == [1]
        assert if_node.payload["else_count"] == 0

    def test_elif_else_arms(self):
        source = (
            "if a < 1:\n    x = 1\nelif a < 2:\n    x = 2\n    y = 3\nelse:\n    x = 4\nreturn x"
        )
        ast = parse(source)
        if_node = ast.node(ast.node(ast.root).children[0])
        assert if_node.payload["arm_stmt_counts"] == [1, 2]
        assert if_node.payload["else_count"] == 1

    def test_for_loop(self):
        ast = parse("for p in xs:\n    y = p\nreturn y")
        for_node = ast.node(ast.node(ast.root).children[0])
        assert for_node.kind == "For"
        assert for_node.payload["var"] == "p"

    def test_expressions(self):
        ast = parse("return sorted(xs)[0].find('a')[1].depth")
        assert ast.node(ast.root).children  # parses

    def test_empty_source_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse("   \n  ")

    def test_bad_indent_width(self):
        with pytest.raises(LexError) as err:
            parse("if a:\n   x = 1\nreturn x")
        assert err.value.line == 2

    def test_tab_indent_rejected(self):
        with pytest.raises(LexError):
            parse("if a:\n\tx = 1")

    def test_unknown_character(self):
        with pytest.raises(LexError, match="unknown character"):
            parse("x = 1 $ 2")

    def test_non_decimal_digit_is_unknown_character(self):
        # '²' is a digit to str.isdigit but not a decimal int() accepts
        with pytest.raises(LexError, match="unknown character '²'") as err:
            parse("x = ²\nreturn x")
        assert (err.value.line, err.value.col) == (1, 5)
        with pytest.raises(LexError, match="unknown character '²'"):
            parse("x = 1²\nreturn x")
        # other decimal digits still lex as numbers
        ast = parse("x = 1٣\nreturn x")
        assert ast.node(0).payload == {"value": 13}

    def test_numeric_literals_up_to_the_bound_lex(self):
        ast = parse(f"x = 000{MAX_INT}\ny = " + "9" * 308 + ".0\nreturn x")
        assert ast.node(0).payload == {"value": MAX_INT}
        assert ast.node(2).payload == {"value": float("9" * 308)}

    def test_syntax_error_reports_expected(self):
        with pytest.raises(DslSyntaxError, match="expected"):
            parse("for p xs:\n    y = p")

    def test_unknown_builtin_rejected(self):
        with pytest.raises(DslSyntaxError, match="unknown function"):
            parse("x = foo(1)")

    _BUILTINS = "abs, bool_to_yesno, distance, int, len, max, min, sorted, str"

    @pytest.mark.parametrize(
        "source,error,message,line,col",
        [
            ("x = 1 $ 2", LexError, "unknown character '$'", 1, 7),
            ("if a:\n   x = 1\nreturn x", LexError,
             "indentation must be a multiple of 4 spaces", 2, 1),
            ("if a:\n        x = 1", LexError, "indentation increased by more than one level", 2, 1),
            ("x = 'a\\q'\nreturn x", LexError, "unknown escape \\q", 1, 5),
            ("x = 'a\\", LexError, "unterminated escape", 1, 5),
            ("x = 'abc\nreturn x", LexError, "unterminated string literal", 1, 5),
            # a literal the interpreter would not hold: infinity, beyond MAX_INT,
            # and more digits than int() converts
            pytest.param("x = " + "9" * 400 + ".0\nreturn int(x)", LexError,
                         "numeric literal out of range", 1, 5, id="infinite-float"),
            ("x = 9223372036854775808", LexError, "numeric literal out of range", 1, 5),
            pytest.param("x = 1 + " + "9" * 4301, LexError, "numeric literal out of range", 1, 9,
                         id="4301-digit-int"),
            ("for p xs:\n    y = p", DslSyntaxError, "expected 'in', got 'xs'", 1, 7),
            ("x = [1, 2\nreturn x", DslSyntaxError, "expected ']', got 'NEWLINE'", 1, 10),
            ("return", DslSyntaxError, "expected an expression, got 'NEWLINE'", 1, 7),
            ("x = (1 + 2)(3)", DslSyntaxError, "only named built-ins are callable", 1, 12),
            ("x = foo(1)", DslSyntaxError, f"unknown function 'foo' (builtins: {_BUILTINS})", 1, 5),
            # the position is the function name's, not the first token's
            ("x = (foo)(1)", DslSyntaxError, f"unknown function 'foo' (builtins: {_BUILTINS})", 1, 6),
        ],
    )
    def test_error_message_and_position(self, source, error, message, line, col):
        with pytest.raises(error) as err:
            parse(source)
        assert type(err.value) is error
        assert str(err.value) == f"{message} (line {line}, col {col})"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "source,tree",
        [
            ("(a + b) * c", "(* (+ a b) c)"),
            ("a - b - c", "(- (- a b) c)"),
            ("not a == b", "(not (== a b))"),
            ("-x.depth", "(- (depth x))"),
            ("a or b and c", "(or a (and b c))"),
        ],
    )
    def test_precedence_and_associativity(self, source, tree):
        ast = parse(f"return {source}")
        ret = ast.node(ast.node(ast.root).children[0])
        assert sexpr(ast, ret.children[0]) == tree

    def test_tree_shape(self):
        assert_tree(parse("x = 1\nif x == 1:\n    y = x + 2\nreturn y"))


def test_generator_determinism():
    scenes = generate_scenes(5, seed=3)
    query = generate_queries(scenes, seed=4)[0]
    a = generate_program(query)
    b = generate_program(query)
    assert a.source == b.source


# Random programs: build source snippets bottom-up so every sample is valid.

_names = st.sampled_from(["x", "y", "zz", "patches", "count"])
_ints = st.integers(min_value=0, max_value=999).map(str)
_strings = st.sampled_from(["'a'", "'muffin'", "'b c'"])


_operators = ["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "and", "or", "in"]
_attributes = ["depth", "left", "lower", "right", "upper", "width", "height",
               "horizontal_center", "vertical_center"]


def _exprs(depth: int) -> st.SearchStrategy[str]:
    base = st.one_of(_names, _ints, _strings, st.sampled_from(["True", "False", "image"]))
    if depth <= 0:
        return base
    sub = _exprs(depth - 1)
    args = st.lists(sub, min_size=0, max_size=2).map(", ".join)
    return st.one_of(
        base,
        st.tuples(sub, st.sampled_from(_operators), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["not ", "-"]), sub).map(lambda t: f"({t[0]}({t[1]}))"),
        st.lists(sub, min_size=0, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.tuples(st.sampled_from(sorted(BUILTIN_CALLABLES)), args).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]})[{t[1]}]"),
        st.tuples(sub, st.sampled_from(_attributes)).map(lambda t: f"({t[0]}).{t[1]}"),
        st.tuples(sub, st.sampled_from(sorted(TOOL_METHODS)), args).map(
            lambda t: f"({t[0]}).{t[1]}({t[2]})"
        ),
    )


@st.composite
def _programs(draw) -> str:
    statements = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        form = draw(st.sampled_from(["assign", "if", "for", "expr"]))
        expr = draw(_exprs(2))
        name = draw(_names)
        if form == "assign":
            statements.append(f"{name} = {expr}")
        elif form == "expr":
            statements.append(expr)
        elif form == "for":
            inner = draw(_exprs(1))
            statements.append(f"for {name} in {expr}:\n    {name} = {inner}")
        else:
            inner = draw(_exprs(1))
            arm = f"if {expr}:\n    {name} = {inner}"
            if draw(st.booleans()):
                arm += f"\nelif {draw(_exprs(1))}:\n    {name} = {inner}"
            if draw(st.booleans()):
                arm += f"\nelse:\n    {name} = {inner}"
            statements.append(arm)
    statements.append(f"return {draw(_exprs(1))}")
    return "\n".join(statements)


@given(_programs())
@settings(max_examples=120, deadline=None)
def test_parse_random_programs_into_valid_trees(source):
    """Any tree parse returns is a tree, and execute returns a trace for it
    and never raises: the interpreter relies on the parser for every node
    kind, operator and function name it meets."""
    ast = parse(source)
    assert_tree(ast)
    trace = execute(ast, make_muffin_scene(3))
    assert trace.status in ("ok", "runtime_error", "step_limit")


def test_readme_lists_the_builtins_and_tools():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The DSL\n", 1)[1].split("\n## ", 1)[0]
    builtins, tools = section.split("Built-ins:", 1)[1].split("Patch tools:", 1)
    tools = tools.split("plus patch attributes", 1)[0]
    assert set(re.findall(r"`(\w+)`", builtins)) == BUILTIN_CALLABLES
    assert set(re.findall(r"`(\w+)`", tools)) == TOOL_METHODS
