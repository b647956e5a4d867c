"""Text format for presentations, morphisms, and element expressions.

    # comments run to the end of the line
    cdga A {
        cap 16;                 # optional; callers supply a default otherwise
        flag non_simply_connected;
        gen a : 3;
        gen x : 5;
        d x = a*b;
        rel a^4;
    }
    morphism F : A -> B {
        a -> a1 - a2;
    }

Expressions use + - * ^ with parentheses and rational literals p/q.  The
element printer emits exactly this syntax, so printed elements parse back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import AlgebraElement, CdgaError, CdgaMorphism, Presentation, _coerce_coeff


class ParseError(CdgaError):
    def __init__(self, message, line=None, col=None):
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokenizer

_PUNCT = ("->", "{", "}", ":", ";", "=", "+", "-", "*", "^", "(", ")", ",")


class Token:
    """A lexer token.  Slotted rather than a NamedTuple, which is slower
    to build and to read: the lexer builds one per token and the parser
    reads each several times."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind            # 'name' | 'number' | 'punct' | 'eof'
        self.text = text
        self.line = line
        self.col = col


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = text[i:j]
            # rational literal p/q, only when a digit follows the slash
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                num = text[i:k]
                j = k
            tokens.append(Token("number", num, line, col))
            col += j - i
            i = j
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched is None:
            raise ParseError(f"unexpected character {c!r}", line, col)
        tokens.append(Token("punct", matched, line, col))
        i += len(matched)
        col += len(matched)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# expression ASTs: ('num', int | Fraction) ('gen', name) ('add', l, r)
#                  ('sub', l, r) ('mul', l, r) ('pow', base, int) ('neg', x)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        return self.next()

    def expect_int(self, what: str) -> int:
        t = self.expect("number")
        if "/" in t.text:
            raise ParseError(f"{what} must be an integer", t.line, t.col)
        return int(t.text)

    def at_punct(self, text) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    # -- expressions

    def parse_expr(self):
        if self.at_punct("-"):
            self.next()
            node = ("neg", self.parse_term())
        else:
            node = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().text
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_punct("*"):
            self.next()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.at_punct("^"):
            self.next()
            node = ("pow", node, self.expect_int("exponent"))
        return node

    def parse_atom(self):
        t = self.peek()
        if self.at_punct("("):
            self.next()
            node = self.parse_expr()
            self.expect("punct", ")")
            return node
        if t.kind == "number":
            self.next()
            den = t.text.partition("/")[2]
            if den and not int(den):
                raise ParseError(f"zero denominator in {t.text!r}", t.line, t.col)
            return ("num", _coerce_coeff(Fraction(t.text)))
        if t.kind == "name":
            self.next()
            return ("gen", t.text)
        raise ParseError(f"expected an expression, found {t.text or t.kind!r}",
                         t.line, t.col)


def parse_expression(text: str):
    p = _Parser(tokenize(text))
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node


def evaluate(node, pres: Presentation) -> AlgebraElement:
    kind = node[0]
    if kind == "num":
        return pres.one() * node[1]
    if kind == "gen":
        return pres.gen(node[1])
    if kind == "neg":
        return -evaluate(node[1], pres)
    if kind == "add":
        return evaluate(node[1], pres) + evaluate(node[2], pres)
    if kind == "sub":
        return evaluate(node[1], pres) - evaluate(node[2], pres)
    if kind == "mul":
        return evaluate(node[1], pres) * evaluate(node[2], pres)
    if kind == "pow":
        return evaluate(node[1], pres) ** node[2]
    raise CdgaError(f"unknown expression node {kind!r}")


def parse_element(text: str, pres: Presentation) -> AlgebraElement:
    return evaluate(parse_expression(text), pres)


# ---------------------------------------------------------------------------
# documents


class CdgaSpec(NamedTuple):
    name: str
    gens: list                  # (name, degree)
    rels: list                  # expression ASTs
    diffs: dict                 # gen -> AST
    flags: set
    cap: int | None


class MorphismSpec(NamedTuple):
    name: str
    source: str
    target: str
    images: dict                # gen -> AST


class Document(NamedTuple):
    cdgas: dict
    morphisms: dict
    order: list                 # (kind, name) as parsed


def parse_document(text: str) -> Document:
    p = _Parser(tokenize(text))
    doc = Document({}, {}, [])
    while p.peek().kind != "eof":
        t = p.expect("name")
        if t.text == "cdga":
            spec = _parse_cdga(p)
            if spec.name in doc.cdgas:
                raise ParseError(f"duplicate cdga {spec.name!r}", t.line, t.col)
            doc.cdgas[spec.name] = spec
            doc.order.append(("cdga", spec.name))
        elif t.text == "morphism":
            spec = _parse_morphism(p)
            if spec.name in doc.morphisms:
                raise ParseError(f"duplicate morphism {spec.name!r}", t.line, t.col)
            doc.morphisms[spec.name] = spec
            doc.order.append(("morphism", spec.name))
        else:
            raise ParseError(f"expected 'cdga' or 'morphism', found {t.text!r}",
                             t.line, t.col)
    return doc


def _parse_cdga(p: _Parser) -> CdgaSpec:
    name = p.expect("name").text
    gens, rels, diffs, flags, cap = [], [], {}, set(), None
    p.expect("punct", "{")
    while not p.at_punct("}"):
        kw = p.expect("name")
        if kw.text == "gen":
            gname = p.expect("name").text
            p.expect("punct", ":")
            gens.append((gname, p.expect_int("generator degree")))
        elif kw.text == "d":
            gname = p.expect("name").text
            p.expect("punct", "=")
            if gname in diffs:
                raise ParseError(f"duplicate differential for {gname!r}",
                                 kw.line, kw.col)
            diffs[gname] = p.parse_expr()
        elif kw.text == "rel":
            rels.append(p.parse_expr())
        elif kw.text == "flag":
            flags.add(p.expect("name").text)
        elif kw.text == "cap":
            cap = p.expect_int("cap")
        else:
            raise ParseError(f"unknown item {kw.text!r}", kw.line, kw.col)
        p.expect("punct", ";")
    p.expect("punct", "}")
    return CdgaSpec(name, gens, rels, diffs, flags, cap)


def _parse_morphism(p: _Parser) -> MorphismSpec:
    name = p.expect("name").text
    p.expect("punct", ":")
    source = p.expect("name").text
    p.expect("punct", "->")
    target = p.expect("name").text
    images = {}
    p.expect("punct", "{")
    while not p.at_punct("}"):
        gname = p.expect("name").text
        p.expect("punct", "->")
        if gname in images:
            raise ParseError(f"duplicate image for {gname!r}",
                             p.peek().line, p.peek().col)
        images[gname] = p.parse_expr()
        p.expect("punct", ";")
    p.expect("punct", "}")
    return MorphismSpec(name, source, target, images)


# ---------------------------------------------------------------------------
# realization


KNOWN_FLAGS = {"non_simply_connected"}


def default_cap(gens, relation_degrees=()) -> int:
    """2 * max degree + 2; when every generator is odd, at least one above
    the sum of the degrees, so the window reaches the certified top degree;
    and at least one above every relation degree, so that each relation and
    its differential lie under the cap."""
    degrees = [d for _, d in gens]
    cap = 2 * max(degrees, default=1) + 2
    if degrees and all(d % 2 for d in degrees):
        cap = max(cap, sum(degrees) + 1)
    return max(cap, max(relation_degrees, default=0) + 1)


def make_presentation(spec: CdgaSpec, cap: int | None = None) -> Presentation:
    """Build the presentation; explicit cap argument beats the file's cap,
    and the file's cap beats default_cap, which reads the relation degrees
    off their terms as evaluated on a scratch free presentation."""
    unknown = spec.flags - KNOWN_FLAGS
    if unknown:
        raise ParseError(f"unknown flags {sorted(unknown)} in cdga {spec.name!r}")
    use_cap = cap if cap is not None else spec.cap
    simply_connected = "non_simply_connected" not in spec.flags
    scratch = Presentation(spec.gens, default_cap(spec.gens) if use_cap is None else use_cap,
                           simply_connected=simply_connected, validate=False)
    rels = [dict(evaluate(ast, scratch).terms) for ast in spec.rels]
    diffs = {g: dict(evaluate(ast, scratch).terms) for g, ast in spec.diffs.items()}
    if use_cap is None:
        use_cap = default_cap(spec.gens, [scratch._ctx.mono_degree(m)
                                          for r in rels for m in r])
    return Presentation(spec.gens, use_cap, relations=rels, differentials=diffs,
                        simply_connected=simply_connected, _engine=scratch._ctx)


def make_morphism(doc: Document, name: str, presentations: dict) -> CdgaMorphism:
    spec = doc.morphisms[name]
    if spec.source not in presentations or spec.target not in presentations:
        raise ParseError(f"morphism {name!r} refers to unknown cdgas")
    src = presentations[spec.source]
    tgt = presentations[spec.target]
    images = {g: evaluate(ast, tgt) for g, ast in spec.images.items()}
    return CdgaMorphism(src, tgt, images, check=True, name=name)


def realize_document(doc: Document, cap: int | None = None):
    presentations = {name: make_presentation(spec, cap)
                     for name, spec in doc.cdgas.items()}
    morphisms = {name: make_morphism(doc, name, presentations)
                 for name in doc.morphisms}
    return presentations, morphisms


# ---------------------------------------------------------------------------
# printing


def print_presentation(P: Presentation, name: str = "A") -> str:
    lines = [f"cdga {name} {{"]
    lines.append(f"    cap {P.cap};")
    if not P.simply_connected:
        lines.append("    flag non_simply_connected;")
    for g in P.generators:
        lines.append(f"    gen {g.name} : {g.degree};")
    for g in P.generators:
        raw = P._diff_raw.get(g.name)
        if raw:
            lines.append(f"    d {g.name} = {AlgebraElement(P, dict(raw))};")
    for rel in P.relations:
        lines.append(f"    rel {AlgebraElement(P, dict(rel))};")
    lines.append("}")
    return "\n".join(lines)
