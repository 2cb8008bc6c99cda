"""Lexer, recursive-descent parser, and AST for the visual-program DSL.

The language is a closed imperative subset: assignments, ``if``/``elif``/
``else``, ``for`` over lists, ``return``, and expression statements, with
4-space indentation delimiting blocks. A program source is the body of an
implicit entry function whose single parameter (``image``) is bound to the
full-canvas patch at execution time; the AST root is that entry node.

Parenthesized grouping is accepted even though parentheses never appear as
AST nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .errors import DslSyntaxError, LexError

KEYWORDS = {"if", "elif", "else", "for", "in", "return", "and", "or", "not", "True", "False"}

BUILTIN_CALLABLES = {"len", "sorted", "min", "max", "abs", "str", "int", "bool_to_yesno", "distance"}

TOOL_METHODS = {"find", "exists", "verify_property", "best_text_match", "simple_query", "compute_depth"}

# The largest integer magnitude a program may hold, as a literal or as a
# value the interpreter computes.
MAX_INT = 2**63 - 1

_COMPARISONS = {"==", "!=", "<", "<=", ">", ">=", "in"}
_INDENT_WIDTH = 4


# ---------------------------------------------------------------------------
# tokens

@dataclass(frozen=True)
class Token:
    kind: str  # NAME, INT, FLOAT, STRING, OP, KEYWORD, NEWLINE, INDENT, DEDENT, EOF
    value: Any
    line: int
    col: int


_TWO_CHAR_OPS = {"==", "!=", "<=", ">="}
_ONE_CHAR_OPS = set("()[],.:=+-*/<>")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    indent_stack = [0]
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip() == "":
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise LexError("tabs are not allowed in indentation", lineno, 1)
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % _INDENT_WIDTH != 0:
            raise LexError(f"indentation must be a multiple of {_INDENT_WIDTH} spaces", lineno, 1)
        level = indent // _INDENT_WIDTH
        if level > indent_stack[-1]:
            if level != indent_stack[-1] + 1:
                raise LexError("indentation increased by more than one level", lineno, 1)
            indent_stack.append(level)
            tokens.append(Token("INDENT", None, lineno, 1))
        else:
            while level < indent_stack[-1]:
                indent_stack.pop()
                tokens.append(Token("DEDENT", None, lineno, 1))
            if level != indent_stack[-1]:
                raise LexError("dedent does not match any outer level", lineno, 1)
        _lex_line(stripped, lineno, indent, tokens)
        tokens.append(Token("NEWLINE", None, lineno, len(raw) + 1))
    while indent_stack[-1] > 0:
        indent_stack.pop()
        tokens.append(Token("DEDENT", None, len(lines) + 1, 1))
    tokens.append(Token("EOF", None, len(lines) + 1, 1))
    return tokens


def _lex_line(text: str, lineno: int, offset: int, out: list[Token]) -> None:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = offset + i + 1
        if ch == " ":
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            is_float = j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal()
            if is_float:
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            out.append(_number(text[i:j], is_float, lineno, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                out.append(Token("KEYWORD", word, lineno, col))
            else:
                out.append(Token("NAME", word, lineno, col))
            i = j
            continue
        if ch in "'\"":
            value, j = _lex_string(text, i, lineno, col)
            out.append(Token("STRING", value, lineno, col))
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            out.append(Token("OP", two, lineno, col))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            out.append(Token("OP", ch, lineno, col))
            i += 1
            continue
        raise LexError(f"unknown character {ch!r}", lineno, col)


def _number(literal: str, is_float: bool, lineno: int, col: int) -> Token:
    """The token of a numeric literal. A literal the interpreter would not
    hold as a value (a float that rounds to infinity, an int beyond
    ``MAX_INT``) is a LexError."""
    if is_float:
        value = float(literal)
        if math.isfinite(value):
            return Token("FLOAT", value, lineno, col)
    elif len(literal.lstrip("0")) <= len(str(MAX_INT)) and int(literal) <= MAX_INT:
        return Token("INT", int(literal), lineno, col)
    raise LexError("numeric literal out of range", lineno, col)


def _lex_string(text: str, start: int, lineno: int, col: int) -> tuple[str, int]:
    quote = text[start]
    i = start + 1
    parts: list[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise LexError("unterminated escape", lineno, col)
            esc = text[i + 1]
            mapping = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
            if esc not in mapping:
                raise LexError(f"unknown escape \\{esc}", lineno, col)
            parts.append(mapping[esc])
            i += 2
            continue
        if ch == quote:
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexError("unterminated string literal", lineno, col)


# ---------------------------------------------------------------------------
# AST

@dataclass
class AstNode:
    id: int
    kind: str
    children: list[int] = field(default_factory=list)
    payload: dict = field(default_factory=dict)


@dataclass
class Ast:
    nodes: list[AstNode]
    root: int

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(n.id, c) for n in self.nodes for c in n.children]

    def validate(self) -> None:
        """Check tree shape: unique ids, |E| = |V| - 1, all reachable, arity."""
        ids = [n.id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate node ids")
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError("edge count must be |V| - 1")
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise ValueError(f"node {nid} reached twice")
            seen.add(nid)
            stack.extend(self.node(nid).children)
        if len(seen) != len(self.nodes):
            raise ValueError("unreachable nodes present")
        for n in self.nodes:
            _check_arity(n)


def _check_arity(node: AstNode) -> None:
    k = node.kind
    n = len(node.children)
    if k == "Binary" and n != 2:
        raise ValueError(f"Binary node {node.id} must have 2 children, has {n}")
    if k in ("Unary", "Assign", "Return", "ExprStmt", "Attribute") and n != 1:
        raise ValueError(f"{k} node {node.id} must have 1 child, has {n}")
    if k == "Index" and n != 2:
        raise ValueError(f"Index node {node.id} must have 2 children, has {n}")
    if k in ("Literal", "Name") and n != 0:
        raise ValueError(f"{k} node {node.id} must be a leaf")
    if k == "For" and n < 2:
        raise ValueError(f"For node {node.id} needs an iterable and a body")
    if k == "MethodCall" and n < 1:
        raise ValueError(f"MethodCall node {node.id} needs a receiver")
    if k == "If":
        counts = node.payload["arm_stmt_counts"]
        expected = len(counts) + sum(counts) + node.payload.get("else_count", 0)
        if n != expected:
            raise ValueError(f"If node {node.id} child count {n} != expected {expected}")
        if any(c < 1 for c in counts):
            raise ValueError(f"If node {node.id} has an empty arm")
    if k == "Entry" and n < 1:
        raise ValueError("Entry node needs at least one statement")


def if_arms(ast: Ast, node: AstNode) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Decode an If node's children into [(cond_id, [stmt_ids]), ...] plus
    the else statement ids."""
    counts = node.payload["arm_stmt_counts"]
    else_count = node.payload.get("else_count", 0)
    arms = []
    i = 0
    for count in counts:
        cond = node.children[i]
        stmts = node.children[i + 1 : i + 1 + count]
        arms.append((cond, list(stmts)))
        i += 1 + count
    else_stmts = list(node.children[i : i + else_count])
    return arms, else_stmts


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nodes: list[AstNode] = []
        # Each Name node's token, so an unknown function is reported where
        # its name stands.
        self.name_tokens: dict[int, Token] = {}

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: Any = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.value is not None else tok.kind
            raise DslSyntaxError(f"expected {want!r}, got {got!r}", tok.line, tok.col)
        return self.advance()

    def at(self, kind: str, value: Any = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def make(self, kind: str, children: list[int], payload: dict) -> int:
        self.nodes.append(AstNode(id=len(self.nodes), kind=kind, children=children, payload=payload))
        return len(self.nodes) - 1

    # -- grammar

    def parse_program(self) -> Ast:
        stmts = []
        while not self.at("EOF"):
            stmts.append(self.parse_statement())
        if not stmts:
            tok = self.peek()
            raise DslSyntaxError("expected at least one statement", tok.line, tok.col)
        root = self.make("Entry", stmts, {"param": "image"})
        return Ast(nodes=self.nodes, root=root)

    def parse_statement(self) -> int:
        tok = self.peek()
        if self.at("KEYWORD", "if"):
            return self.parse_if()
        if self.at("KEYWORD", "for"):
            return self.parse_for()
        if self.at("KEYWORD", "return"):
            self.advance()
            kind, payload = "Return", {}
        elif tok.kind == "NAME" and self.peek(1).kind == "OP" and self.peek(1).value == "=":
            self.advance()
            self.advance()  # '='
            kind, payload = "Assign", {"target": tok.value}
        else:
            kind, payload = "ExprStmt", {}
        value = self.parse_expr()
        self.expect("NEWLINE")
        return self.make(kind, [value], payload)

    def parse_block(self) -> list[int]:
        self.expect("OP", ":")
        self.expect("NEWLINE")
        self.expect("INDENT")
        stmts = [self.parse_statement()]
        while not self.at("DEDENT"):
            stmts.append(self.parse_statement())
        self.expect("DEDENT")
        return stmts

    def parse_if(self) -> int:
        children: list[int] = []
        counts: list[int] = []
        keyword = "if"
        while self.at("KEYWORD", keyword):
            self.advance()
            keyword = "elif"
            children.append(self.parse_expr())
            stmts = self.parse_block()
            children.extend(stmts)
            counts.append(len(stmts))
        else_count = 0
        if self.at("KEYWORD", "else"):
            self.advance()
            stmts = self.parse_block()
            children.extend(stmts)
            else_count = len(stmts)
        return self.make("If", children, {"arm_stmt_counts": counts, "else_count": else_count})

    def parse_for(self) -> int:
        self.advance()  # 'for'
        var = self.expect("NAME")
        self.expect("KEYWORD", "in")
        iterable = self.parse_expr()
        return self.make("For", [iterable] + self.parse_block(), {"var": var.value})

    # expressions, lowest precedence first

    def parse_expr(self) -> int:
        return self.parse_or()

    def _binary_chain(self, parse_sub, ops: set[str], kinds: tuple[str, ...]) -> int:
        left = parse_sub()
        while (self.peek().kind in kinds and self.peek().value in ops):
            op = self.advance()
            left = self.make("Binary", [left, parse_sub()], {"op": op.value})
        return left

    def parse_or(self) -> int:
        return self._binary_chain(self.parse_and, {"or"}, ("KEYWORD",))

    def parse_and(self) -> int:
        return self._binary_chain(self.parse_not, {"and"}, ("KEYWORD",))

    def parse_not(self) -> int:
        if self.at("KEYWORD", "not"):
            self.advance()
            return self.make("Unary", [self.parse_not()], {"op": "not"})
        return self.parse_comparison()

    def parse_comparison(self) -> int:
        return self._binary_chain(self.parse_arith, _COMPARISONS, ("OP", "KEYWORD"))

    def parse_arith(self) -> int:
        return self._binary_chain(self.parse_term, {"+", "-"}, ("OP",))

    def parse_term(self) -> int:
        return self._binary_chain(self.parse_factor, {"*", "/"}, ("OP",))

    def parse_factor(self) -> int:
        if self.at("OP", "-"):
            self.advance()
            return self.make("Unary", [self.parse_factor()], {"op": "-"})
        return self.parse_postfix()

    def parse_postfix(self) -> int:
        node = self.parse_atom()
        while True:
            if self.at("OP", "."):
                self.advance()
                attr = self.expect("NAME").value
                if self.at("OP", "("):
                    node = self.make("MethodCall", [node] + self.parse_list("(", ")"), {"method": attr})
                else:
                    node = self.make("Attribute", [node], {"attr": attr})
            elif self.at("OP", "["):
                self.advance()
                index = self.parse_expr()
                self.expect("OP", "]")
                node = self.make("Index", [node, index], {})
            elif self.at("OP", "("):
                base = self.nodes[node]
                if base.kind != "Name":
                    tok = self.peek()
                    raise DslSyntaxError("only named built-ins are callable", tok.line, tok.col)
                func = base.payload["id"]
                if func not in BUILTIN_CALLABLES:
                    tok = self.name_tokens[node]
                    raise DslSyntaxError(
                        f"unknown function {func!r} (builtins: {', '.join(sorted(BUILTIN_CALLABLES))})",
                        tok.line,
                        tok.col,
                    )
                args = self.parse_list("(", ")")
                # Reuse the Name node's slot as the Call to keep the tree clean.
                base.kind = "Call"
                base.payload = {"func": func}
                base.children = args
            else:
                return node

    def parse_list(self, open_: str, close: str) -> list[int]:
        """Comma-separated expressions between ``open_`` and ``close``."""
        self.expect("OP", open_)
        items = []
        if not self.at("OP", close):
            items.append(self.parse_expr())
            while self.at("OP", ","):
                self.advance()
                items.append(self.parse_expr())
        self.expect("OP", close)
        return items

    def parse_atom(self) -> int:
        tok = self.peek()
        if tok.kind in ("INT", "FLOAT", "STRING"):
            self.advance()
            return self.make("Literal", [], {"value": tok.value})
        if tok.kind == "KEYWORD" and tok.value in ("True", "False"):
            self.advance()
            return self.make("Literal", [], {"value": tok.value == "True"})
        if tok.kind == "NAME":
            self.advance()
            node = self.make("Name", [], {"id": tok.value})
            self.name_tokens[node] = tok
            return node
        if self.at("OP", "["):
            return self.make("ListLit", self.parse_list("[", "]"), {})
        if self.at("OP", "("):
            self.advance()
            inner = self.parse_expr()
            self.expect("OP", ")")
            return inner
        got = tok.value if tok.value is not None else tok.kind
        raise DslSyntaxError(f"expected an expression, got {got!r}", tok.line, tok.col)


def parse(source: str) -> Ast:
    """Parse DSL source into an AST; raises LexError / DslSyntaxError."""
    if not source.strip():
        raise DslSyntaxError("empty source", 1, 1)
    ast = _Parser(tokenize(source)).parse_program()
    ast.validate()
    return ast
