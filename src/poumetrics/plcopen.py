"""PLCopen TC6-XML frontend.

Reduces graphical bodies (FBD, LD, SFC) and embedded textual bodies to
the same IR the ST frontend produces.  Parsing is namespace-agnostic:
`parse_xml` rewrites every tag to its local name, so files from
different tools load alike.  Network elements are visited in localId order, which makes the
extracted token stream independent of element order in the file.

Counting rules for graphical languages:

* FBD: every block is one operator; every in/out/inOut variable element
  is one operand.  Selector blocks (SEL, MUX, LIMIT), wired EN inputs
  and conditional jumps each add one decision.  Blocks whose type names
  a user POU or function block become call sites: inputs wired in are
  arguments, distinct outputs wired onward are used returns.
* LD: every contact and coil is one operator (keyed by its kind) plus
  one operand for its variable.  A contact reads its variable and adds
  one decision; a coil writes its variable.  Wired jumps and wired
  returns add a decision each.
* SFC: every step, transition and action association is one operator;
  every transition adds one decision.  Transition conditions and action
  bodies are tokenized in their own language and merged into the POU.

A variable element (an FBD in/out variable, or the variable of a contact
or coil) accesses the direct address its text is, or else the root
identifier of its text, unless that is the type of a typed literal
(`T#5s`) or a keyword of the ST frontend (`st._KEYWORDS`: TRUE, FALSE,
NOT, IF, ...), which names nothing.

Every walk of one POU, network or ST fragment, writes into one
collector, the POU's `_Acc` (an `st._BodyResult`).  `walk_pous` fills
them in pass 1, while the document's tree is alive; no walk needs other
files.  It alone reads each <interface>, and the loader registers the
FBs from its records.  `extract_pous` then, in pass 2, resolves each POU
with `st.parse_pou_unit`, as for an ST POU: it classifies the
declarations, keeps as calls the blocks whose type is a POU or FB of the
whole sample, and applies the declarations once.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from .errors import AnalysisWarning, ParseError, XmlMalformed
from .ir import (
    DecisionSpan,
    Language,
    Pou,
    PouKind,
    SourceRef,
    Token,
    VarSection,
)
from .st import _KEYWORDS, _MAX_NESTING, WalkedPou, _BodyResult, _bound_error, parse_pou_unit, st_fragment_facts
from .typesys import RawDecl, TypeContext, TypeSpec, named

_POU_TYPE_MAP = {
    "program": PouKind.PROGRAM,
    "functionblock": PouKind.FUNCTION_BLOCK,
    "function": PouKind.FUNCTION,
}

_SECTION_MAP = {
    "inputVars": VarSection.INPUT,
    "outputVars": VarSection.OUTPUT,
    "inOutVars": VarSection.IN_OUT,
    "localVars": VarSection.LOCAL,
    "tempVars": VarSection.TEMP,
    "externalVars": VarSection.EXTERNAL,
    "globalVars": VarSection.GLOBAL,
}

_BODY_LANGUAGES = {"ST": Language.ST, "FBD": Language.FBD, "LD": Language.LD, "SFC": Language.SFC}

# Blocks that pick one of several inputs; each occurrence is a branch.
_SELECTOR_BLOCKS = frozenset({"sel", "mux", "limit"})

# An identifier that `#` follows names the type of a literal.
_IDENT_ROOT = re.compile(r"[A-Za-z_]\w*(?![\w#])")

# The operator of an LD element: its tag -> the (attribute, value, kind)
# tests, the first that holds naming its kind, and the kind when none does.
_LD_KINDS = {
    "contact": (
        (("negated", "true", "contact-nc"), ("edge", "rising", "contact-p"), ("edge", "falling", "contact-n")),
        "contact-no",
    ),
    "coil": (
        (("storage", "set", "coil-set"), ("storage", "reset", "coil-reset"), ("negated", "true", "coil-negated")),
        "coil",
    ),
}


def _text_of(el: ET.Element | None) -> str:
    if el is None:
        return ""
    return "".join(el.itertext()).strip()


def parse_xml(text: str, path: str = "") -> ET.Element:
    """Parse a document and return its root, or raise XmlMalformed.

    Every tag is rewritten to its local name, one shared string per
    distinct tag, so the rest of this module matches tags with
    ElementTree's own find, findall and iter."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlMalformed(str(exc), path) from exc
    local: dict[str, str] = {}
    for el in root.iter():
        tag = el.tag
        name = local.get(tag)
        if name is None:
            name = local[tag] = tag.rsplit("}", 1)[-1]
        el.tag = name
    return root


# ------------------------- interface / types -------------------------


def _type_spec_of(type_el: ET.Element | None, path: str, depth: int = 0) -> TypeSpec:
    """Build a TypeSpec from a <type>, <baseType> or <returnType> wrapper,
    whose one child is the type element.  A missing or empty wrapper is
    the unnamed type.  Array, struct and subrange types nested deeper
    than the ST parser accepts are a ParseError."""
    if depth > _MAX_NESTING:
        raise ParseError("nesting deeper than %d levels" % _MAX_NESTING, path)
    inner = None if type_el is None else next(iter(type_el), None)
    if inner is None:
        return named("")
    tag = inner.tag
    if tag == "derived":
        return named(inner.get("name", ""))
    if tag == "array":
        dims = []
        for d in inner.findall("dimension"):
            lo, hi = _array_bound(d.get("lower", "1"), path), _array_bound(d.get("upper", "1"), path)
            if lo > hi:
                raise ParseError("array lower bound %d exceeds upper bound %d" % (lo, hi), path)
            dims.append((lo, hi))
        base = _type_spec_of(inner.find("baseType"), path, depth + 1)
        return TypeSpec("array", dims=tuple(dims), element=base)
    if tag == "struct":
        fields = []
        for var in inner.findall("variable"):
            _type_spec_of(var.find("type"), path, depth + 1)  # parsed for its errors and nesting only
            fields.append(_var_name(var, path))
        return TypeSpec("struct", fields=tuple(fields))
    if tag == "enum":
        return TypeSpec("enum", name="ENUM")
    if tag in ("string", "wstring", "wString"):
        return TypeSpec("string", name="WSTRING" if tag != "string" else "STRING")
    if tag in ("subrangeSigned", "subrangeUnsigned"):
        base = _type_spec_of(inner.find("baseType"), path, depth + 1)
        return TypeSpec("subrange", element=base)
    # Elementary types appear as empty elements named after the type.
    return named(tag.upper())


def _array_bound(text: str, path: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(_bound_error(text), path) from None


def _interface_vars(interface: ET.Element, path: str) -> tuple[list[RawDecl], TypeSpec | None]:
    """Collect the declared variables and the return type of one
    <interface>."""
    out: list[RawDecl] = []
    return_spec: TypeSpec | None = None
    for section_el in interface:
        tag = section_el.tag
        if tag == "returnType":
            return_spec = _type_spec_of(section_el, path)
            continue
        section = _SECTION_MAP.get(tag)
        if section is None:
            continue
        for var in section_el.findall("variable"):
            spec = _type_spec_of(var.find("type"), path)
            out.append(RawDecl(_var_name(var, path), section, spec))
    return out, return_spec


def _var_name(var: ET.Element, path: str) -> str:
    """The name of an interface <variable> or struct member.  A missing
    or blank name, or a keyword, is a ParseError, as in ST."""
    name = var.get("name", "")
    word = name.strip()
    if not word:
        raise ParseError("variable without a name", path)
    if word.upper() in _KEYWORDS:
        raise ParseError("variable name %r is a keyword" % word, path)
    return name


def register_project_types(root: ET.Element, path: str) -> list[tuple[str, TypeSpec]]:
    """The document's data types as (name, spec), in document order.  A
    data type that does not parse raises: the file is skipped whole."""
    return [
        (dt.get("name"), _type_spec_of(dt.find("baseType"), path))
        for dt in root.iter("dataType")
        if dt.get("name")
    ]


def project_global_names(root: ET.Element) -> list[str]:
    """Global variable names declared under configurations/resources."""
    names: list[str] = []
    for inst in root.iter("instances"):
        for gvars in inst.iter("globalVars"):
            for var in gvars.findall("variable"):
                name = var.get("name", "")
                if name:
                    names.append(name.casefold())
    return names


# ------------------------- graphical bodies -------------------------


class _Acc(_BodyResult):
    """The POU's collector, which the network walker and the ST fragment
    walks fill."""

    def __init__(self, path: str, pou: str):
        super().__init__()
        self.path = path
        self.pou = pou

    def warn(self, code: str, message: str) -> None:
        self.warnings.append(AnalysisWarning(code, message, self.path, self.pou))

    def decide(self, kind: str, element_id: str) -> None:
        self.decisions.append(DecisionSpan(kind, SourceRef(self.path, element=element_id)))

    def register_access(self, text: str, read: bool, write: bool) -> None:
        """Register the access of a variable element's stripped text."""
        if text.startswith("%"):
            key = text.casefold()
        else:
            m = _IDENT_ROOT.match(text)
            if m is None or m.group(0).upper() in _KEYWORDS:
                return
            key = m.group(0).casefold()
        if read:
            self.reads.add(key)
        if write:
            self.writes.add(key)


def _local_id_key(lid: str) -> tuple[int, int, str]:
    """Sort key of a localId: ASCII decimal ids first, in integer order
    without building the integer (fewer significant digits first, then
    the digits), then every other id."""
    if lid.isascii() and lid.isdecimal():
        digits = lid.lstrip("0")
        return (0, len(digits), digits)
    return (1, 0, "")


def _sorted_elements(body_el: ET.Element) -> list[ET.Element]:
    """The network's elements in localId order; the sort is stable, so
    elements with equal keys keep their document order."""
    return sorted(body_el, key=lambda el: _local_id_key(el.get("localId", "")))


def _connections_in(el: ET.Element) -> list[ET.Element]:
    out = []
    for cpi in el.iter("connectionPointIn"):
        out.extend(cpi.findall("connection"))
    return out


def _incoming(el: ET.Element) -> list[ET.Element]:
    """The connections wired into a network element itself.  Those inside
    an actionBlock's or transition's <inline> bodies belong to the
    networks those bodies are walked as."""
    if el.tag in ("actionBlock", "transition"):
        return el.findall("connectionPointIn/connection") + el.findall("condition/connectionPointIn/connection")
    return _connections_in(el)


def _walk_network(acc: _Acc, body_el: ET.Element, language: Language, named: dict[str, ET.Element]) -> None:
    # Each element -> the connections wired into it, in document order.
    incoming = {el: _incoming(el) for el in body_el}
    ids = {el.get("localId", "") for el in incoming}

    # Each element's localId -> the set of its output ports that other
    # elements consume.
    inbound: dict[str, set[str]] = {}
    for connections in incoming.values():
        for conn in connections:
            src = conn.get("refLocalId", "")
            if src:
                inbound.setdefault(src, set()).add(conn.get("formalParameter", "").casefold())
                if src not in ids:
                    acc.warn("dangling-connection", "connection references missing element %r" % src)

    elements = _sorted_elements(body_el)
    for el in elements:
        lid = el.get("localId", "")
        tag = el.tag
        if tag == "block":
            _walk_block(acc, el, lid, inbound)
        elif tag in ("inVariable", "outVariable", "inOutVariable"):
            expr = _text_of(el.find("expression"))
            acc.tokens.append(Token.operand(expr or "?"))
            acc.register_access(expr, read=tag != "outVariable", write=tag != "inVariable")
        elif tag in _LD_KINDS:
            _walk_ld_element(acc, el, lid)
        elif tag == "jump":
            if incoming[el]:
                acc.tokens.append(Token.operator(el.get("targetName", "jump"), "jump"))
                acc.decide("conditional-jump", lid)
        elif tag == "return":
            acc.tokens.append(Token.operator("RETURN", "return"))
            if language is Language.LD and incoming[el]:
                acc.decide("conditional-return", lid)
        elif tag in ("step", "macroStep"):
            acc.tokens.append(Token.operator(el.get("name", "") or "step", "step"))
        elif tag == "transition":
            acc.tokens.append(Token.operator(el.get("name", "") or "transition", "transition"))
            acc.decide("transition", lid)
            condition = el.find("condition")
            if condition is not None:  # a wired condition is covered by the network walk itself
                _merge_linked_body(acc, condition, named, "transition", 'transition localId="%s"' % lid)
        elif tag == "actionBlock":
            _walk_action_block(acc, el, named)
        # Rails, divergences, jump steps, labels, connectors and comments
        # carry no tokens of their own.

    if language is Language.SFC:
        _check_reachability(acc, elements, incoming)


def _walk_block(acc: _Acc, el: ET.Element, lid: str, inbound: dict[str, set[str]]) -> None:
    type_name = el.get("typeName", "") or "?"
    acc.tokens.append(Token.operator(type_name, type_name.casefold() + "()"))
    instance = el.get("instanceName", "")
    if instance:
        # The instance is a stateful variable of the POU; its name is
        # data the network touches, so it counts as an operand.
        acc.tokens.append(Token.operand(instance))

    args = 0
    en_wired = False
    for group in ("inputVariables", "inOutVariables"):
        holder = el.find(group)
        if holder is None:
            continue
        for var in holder.findall("variable"):
            if not _connections_in(var):
                continue
            if var.get("formalParameter", "").casefold() == "en":
                en_wired = True
            else:
                args += 1
    if en_wired:
        acc.decide("en-guard", lid)
    if type_name.casefold() in _SELECTOR_BLOCKS:
        acc.decide("selector", lid)

    ports = {p for p in inbound.get(lid, ()) if p != "eno"}
    acc.blocks.append((type_name, instance or type_name, args, len(ports)))


def _walk_ld_element(acc: _Acc, el: ET.Element, lid: str) -> None:
    tag = el.tag
    tests, kind = _LD_KINDS[tag]
    for attr, value, named_kind in tests:
        if el.get(attr, "").casefold() == value:
            kind = named_kind
            break
    acc.tokens.append(Token.operator(kind))
    contact = tag == "contact"
    if contact:
        acc.decide("contact", lid)
    var = _text_of(el.find("variable"))
    if var:
        acc.tokens.append(Token.operand(var))
        acc.register_access(var, read=contact, write=not contact)
    else:
        acc.warn("unbound-contact", "%s %s has no variable" % (tag, lid or "?"))


def _named_bodies(pou_el: ET.Element) -> dict[str, ET.Element]:
    """The POU's named actions and transitions, read once: "action:" or
    "transition:" plus the casefolded name -> body element."""
    out: dict[str, ET.Element] = {}
    for item in ("action", "transition"):
        group = pou_el.find(item + "s")
        if group is None:
            continue
        for entry in group.findall(item):
            body = entry.find("body")
            name = entry.get("name", "")
            if name and body is not None:
                out[item + ":" + name.casefold()] = body
    return out


def _merge_body_element(acc: _Acc, body: ET.Element, named: dict[str, ET.Element], value_context: bool, owner: str) -> None:
    """Merge the contents of a <body>-like element (inline condition,
    named action or named transition) into the accumulator.  Each level
    recurses through the network walk, so nesting is bounded like the ST
    parser's.  An ST fragment that does not parse is reported inside
    `owner`, the element that holds or names the body: ElementTree keeps
    no source offsets, so the fragment's position in the file is unknown."""
    acc.depth += 1
    if acc.depth > _MAX_NESTING:
        raise ParseError("nesting deeper than %d levels" % _MAX_NESTING, acc.path, element=owner)
    for child in body:
        tag = child.tag
        if tag == "ST":
            try:
                st_fragment_facts(_text_of(child), acc.path, value_context, into=acc)
            except ParseError as exc:
                raise type(exc)(exc.message, exc.path, exc.line, exc.column, owner) from None
        elif tag in ("FBD", "LD"):
            _walk_network(acc, child, _BODY_LANGUAGES[tag], named)
        elif tag == "IL":
            acc.warn("il-body-skipped", "embedded IL fragment skipped")
    acc.depth -= 1


def _merge_linked_body(acc: _Acc, holder: ET.Element, named: dict[str, ET.Element], item: str, owner: str) -> None:
    """Merge the <inline> body of a transition condition or action
    association (`item` "transition" or "action"), or else the POU-level
    named body its <reference> names.  That body is popped from `named`,
    so only its first reference merges it.  A transition condition is a
    value its transition consumes.  `owner` names the network element the
    holder belongs to."""
    value_context = item == "transition"
    inline = holder.find("inline")
    if inline is not None:
        _merge_body_element(acc, inline, named, value_context, owner)
        return
    reference = holder.find("reference")
    written = "" if reference is None else reference.get("name", "")
    body = named.pop(item + ":" + written.casefold(), None)
    if body is not None:
        _merge_body_element(acc, body, named, value_context, '%s name="%s"' % (item, written))


def _walk_action_block(acc: _Acc, el: ET.Element, named: dict[str, ET.Element]) -> None:
    owner = 'actionBlock localId="%s"' % el.get("localId", "")
    for action in el.findall("action"):
        qualifier = (action.get("qualifier") or "N").casefold()
        acc.tokens.append(Token.operator("action-" + qualifier.upper(), "action-" + qualifier))
        _merge_linked_body(acc, action, named, "action", owner)


def _check_reachability(acc: _Acc, elements: list[ET.Element], incoming: dict[ET.Element, list[ET.Element]]) -> None:
    """Warn of each step of an SFC network that no connection or jump
    leads to from an initial step.  A network without one is not checked.
    Steps are told apart by localId, and their names only resolve jumps."""
    steps: list[tuple[str, str, str]] = []  # (casefolded name, localId, name) of each step
    seen: set[str] = set()
    for el in elements:
        if el.tag in ("step", "macroStep"):
            lid, name = el.get("localId", ""), el.get("name", "")
            steps.append((name.casefold(), lid, name))
            if el.get("initialStep", "").casefold() == "true":
                seen.add(lid)
    if not seen:
        return
    step_names = {key: lid for key, lid, _ in steps}
    edges: dict[str, set[str]] = {}
    for el in elements:
        lid = el.get("localId", "")
        for conn in incoming[el]:
            src = conn.get("refLocalId", "")
            if src:
                edges.setdefault(src, set()).add(lid)
        if el.tag == "jumpStep":
            target = step_names.get(el.get("targetName", "").casefold())
            if target:
                edges.setdefault(lid, set()).add(target)
    queue = list(seen)
    while queue:
        for nxt in edges.get(queue.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for _, lid, name in sorted(steps):
        if lid not in seen:
            acc.warn("unreachable-step", "step %r (localId %s) is not reachable from an initial step" % (name, lid))


# ------------------------- POU extraction -------------------------


def walk_pous(root: ET.Element, path: str) -> list[WalkedPou]:
    """Pass 1 for one document: read the interface and walk the body of
    every <pou>, in document order, so that the tree can be dropped.  Each
    record is built once, when its POU is done.  A named function block
    whose interface does not parse raises, before any later body is
    walked: the file is skipped whole.  Any other POU without a name, or
    whose interface does not parse, keeps its kind and error, with
    `decls` None; a failed body keeps the interface too."""
    walked: list[WalkedPou] = []
    for pou_el in root.iter("pou"):
        name = pou_el.get("name", "")
        if not name.strip():
            name = ""  # a blank name names no POU, as in ST
        kind = _POU_TYPE_MAP.get(pou_el.get("pouType", "").casefold(), PouKind.PROGRAM)
        acc = _Acc(path=path, pou=name)
        decls = return_spec = language = error = None
        try:
            if not name:
                raise ParseError("pou without a name skipped", path)
            interface = pou_el.find("interface")
            if interface is None:
                # With no declarations, no declaration warning comes before this.
                acc.warn("missing-interface", "pou has no interface element")
            decls, return_spec = ([], None) if interface is None else _interface_vars(interface, path)
            language = _walk_body(acc, pou_el, path)
        except ParseError as exc:
            if kind is PouKind.FUNCTION_BLOCK and name and decls is None:
                raise
            error = exc.fields
        ref = SourceRef(path, element=pou_el.get("globalId", ""))
        return_spec = return_spec if kind is PouKind.FUNCTION else None
        walked.append(WalkedPou(name, ref, kind, language, decls, return_spec, acc, error))
    return walked


def _walk_body(acc: _Acc, pou_el: ET.Element, path: str) -> Language | None:
    """Walk the POU's <body> into `acc`: its language, or None with a
    warning when that language is not analyzed."""
    body_el = pou_el.find("body")
    content = [] if body_el is None else [c for c in body_el if c.tag not in ("documentation", "addData")]
    lang_el = next((c for c in content if c.tag in _BODY_LANGUAGES or c.tag == "IL"), None)
    if not content:
        # no body, or one without content: no language to rank it in
        acc.warn("body-missing", "pou has no body content; pou skipped")
        return None
    if lang_el is None:
        # a body with content in no language we know is skipped,
        # not reported as an empty POU with zero complexity
        acc.warn("body-language-unsupported", "body language %r is not supported; pou skipped" % content[-1].tag)
        return None
    if lang_el.tag == "IL":
        acc.warn("il-body-skipped", "IL body is not supported; pou skipped")
        return None
    language = _BODY_LANGUAGES[lang_el.tag]
    if language is Language.ST:
        st_fragment_facts(_text_of(lang_el), path, into=acc)
    else:
        _walk_network(acc, lang_el, language, _named_bodies(pou_el))
    return language


def extract_pous(
    walked: list[WalkedPou],
    context: TypeContext,
    global_names: frozenset[str],
    pou_names: frozenset[str],
) -> tuple[list[Pou], list[AnalysisWarning]]:
    """Pass 2: build IR POUs from one document's walked <pou>s.
    `pou_names` holds the casefolded names of every POU in the whole
    input set, so blocks that invoke them become call sites."""
    pous: list[Pou] = []
    warnings: list[AnalysisWarning] = []
    for w in walked:
        pou, ws = parse_pou_unit(w, context, global_names, pou_names)
        warnings.extend(ws)
        if pou is not None:
            pous.append(pou)
    return pous, warnings
