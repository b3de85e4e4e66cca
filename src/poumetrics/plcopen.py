"""PLCopen TC6-XML frontend.

Reduces graphical bodies (FBD, LD, SFC) and embedded textual bodies to
the same IR the ST frontend produces.  Parsing is namespace-agnostic:
elements are matched by local name so files from different tools load
alike.  Network elements are visited in localId order, which makes the
extracted token stream independent of element order in the file.

Counting rules for graphical languages:

* FBD: every block is one operator; every in/out/inOut variable element
  is one operand.  Selector blocks (SEL, MUX, LIMIT), wired EN inputs
  and conditional jumps each add one decision.  Blocks whose type names
  a user POU or function block become call sites: inputs wired in are
  arguments, distinct outputs wired onward are used returns.
* LD: every contact and coil is one operator (keyed by its kind) plus
  one operand for the bound variable; every contact adds one decision,
  as do wired jumps and wired returns.
* SFC: every step, transition and action association is one operator;
  every transition adds one decision.  Transition conditions and action
  bodies are tokenized in their own language and merged into the POU.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import AnalysisWarning, ParseError, XmlMalformed
from .ir import (
    CallSite,
    DecisionSpan,
    Language,
    Pou,
    PouKind,
    SourceRef,
    Token,
    VarSection,
)
from .st import _MAX_NESTING, _BodyResult, fb_instance_map, finalize_body, st_fragment_facts
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

_IDENT_ROOT = re.compile(r"[A-Za-z_]\w*")


def _local(tag) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _children(el: ET.Element, name: str) -> list[ET.Element]:
    return [c for c in el if _local(c.tag) == name]


def _first(el: ET.Element, name: str) -> ET.Element | None:
    for c in el:
        if _local(c.tag) == name:
            return c
    return None


def _descendants(el: ET.Element, name: str) -> list[ET.Element]:
    return [d for d in el.iter() if _local(d.tag) == name]


def _text_of(el: ET.Element | None) -> str:
    if el is None:
        return ""
    return "".join(el.itertext()).strip()


def parse_xml(text: str, path: str = "") -> ET.Element:
    """Parse a document and return its root, or raise XmlMalformed."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlMalformed("%s: %s" % (path or "<xml>", exc)) from exc


# ------------------------- interface / types -------------------------


def _type_spec_of(type_el: ET.Element | None, path: str, depth: int = 0) -> TypeSpec:
    """Build a TypeSpec from a <type> wrapper (or a bare type element).
    Array, struct and subrange types nested deeper than the ST parser
    accepts are a ParseError."""
    if depth > _MAX_NESTING:
        raise ParseError("nesting deeper than %d levels" % _MAX_NESTING, path)
    if type_el is None:
        return named("")
    inner = None
    for c in type_el:
        inner = c
        break
    if inner is None:
        # The wrapper itself is the type element (recursive call).
        inner = type_el
    tag = _local(inner.tag)
    if tag == "derived":
        return named(inner.get("name", ""))
    if tag == "array":
        dims = []
        for d in _children(inner, "dimension"):
            try:
                lo = int(d.get("lower", "1"))
                hi = int(d.get("upper", "1"))
            except ValueError:
                lo = hi = 1
            dims.append((lo, hi))
        base = _type_spec_of(_first(inner, "baseType"), path, depth + 1)
        return TypeSpec("array", dims=tuple(dims), element=base)
    if tag == "struct":
        fields = []
        for var in _children(inner, "variable"):
            member_spec = _type_spec_of(_first(var, "type"), path, depth + 1)
            fields.append((var.get("name", ""), member_spec.render()))
        return TypeSpec("struct", fields=tuple(fields))
    if tag == "enum":
        return TypeSpec("enum", name="ENUM")
    if tag in ("string", "wstring", "wString"):
        return TypeSpec("string", name="WSTRING" if tag != "string" else "STRING")
    if tag in ("subrangeSigned", "subrangeUnsigned"):
        base = _type_spec_of(_first(inner, "baseType"), path, depth + 1)
        return TypeSpec("subrange", element=base)
    # Elementary types appear as empty elements named after the type.
    return named(tag.upper())


def _interface_vars(pou_el: ET.Element, path: str) -> tuple[list[RawDecl], TypeSpec | None, bool]:
    """Collect declared variables and the return type of one <pou>.

    The last element reports whether an <interface> element was present
    at all, so callers can warn about POUs that lack one.
    """
    interface = _first(pou_el, "interface")
    if interface is None:
        return [], None, False
    out: list[RawDecl] = []
    return_spec: TypeSpec | None = None
    for section_el in interface:
        tag = _local(section_el.tag)
        if tag == "returnType":
            return_spec = _type_spec_of(section_el, path)
            continue
        section = _SECTION_MAP.get(tag)
        if section is None:
            continue
        for var in _children(section_el, "variable"):
            out.append(RawDecl(var.get("name", ""), section, _type_spec_of(_first(var, "type"), path)))
    return out, return_spec, True


def register_project_types(root: ET.Element, context: TypeContext, path: str) -> None:
    """First pass: feed user data types and FB interfaces into `context`.
    Every spec is built before any is recorded, so a document whose types
    do not parse records none of them."""
    types = [
        (dt.get("name"), _type_spec_of(_first(dt, "baseType"), path))
        for dt in _descendants(root, "dataType")
        if dt.get("name")
    ]
    fbs = [
        (pou_el.get("name"), _interface_vars(pou_el, path)[0])
        for pou_el in _descendants(root, "pou")
        if pou_el.get("name")
        and _POU_TYPE_MAP.get(pou_el.get("pouType", "").casefold()) is PouKind.FUNCTION_BLOCK
    ]
    for name, spec in types:
        context.define(name, spec)
    for name, decls in fbs:
        context.register_fb(name, decls)


def project_global_names(root: ET.Element) -> list[str]:
    """Global variable names declared under configurations/resources."""
    names: list[str] = []
    for inst in _descendants(root, "instances"):
        for gvars in _descendants(inst, "globalVars"):
            for var in _children(gvars, "variable"):
                name = var.get("name", "")
                if name:
                    names.append(name.casefold())
    return names


def project_pou_names(root: ET.Element) -> list[str]:
    return [p.get("name", "").casefold() for p in _descendants(root, "pou") if p.get("name")]


# ------------------------- graphical bodies -------------------------


@dataclass(kw_only=True)
class _Acc(_BodyResult):
    """Mutable collector the network walker and merged fragments fill.
    Graphical call sites go to `fixed_calls`, whose counts are final."""

    path: str
    pou: str
    fb_instances: dict[str, frozenset[str]]
    pou_names: frozenset[str]
    context: TypeContext
    fixed_calls: list[CallSite] = field(default_factory=list)
    warnings: list[AnalysisWarning] = field(default_factory=list)
    merged_refs: set[str] = field(default_factory=set)

    def warn(self, code: str, message: str) -> None:
        self.warnings.append(AnalysisWarning(code, message, self.path, self.pou))

    def decide(self, kind: str, element_id: str) -> None:
        self.decisions.append(DecisionSpan(kind, SourceRef(self.path, element=element_id)))

    def merge_fragment(self, text: str, value_context: bool) -> None:
        res = st_fragment_facts(text, self.path, self.fb_instances, value_context=value_context)
        self.tokens.extend(res.tokens)
        self.decisions.extend(res.decisions)
        self.calls.extend(res.calls)
        self.reads |= res.reads
        self.writes |= res.writes
        for inst, members in res.member_reads.items():
            self.member_reads.setdefault(inst, set()).update(members)

    def register_access(self, expression: str, read: bool, write: bool) -> None:
        text = expression.strip()
        if not text:
            return
        if text.startswith("%"):
            key = text.casefold()
        else:
            m = _IDENT_ROOT.match(text)
            if m is None:
                return
            key = m.group(0).casefold()
            if key in ("true", "false"):
                return
        if read:
            self.reads.add(key)
        if write:
            self.writes.add(key)


def _sorted_elements(body_el: ET.Element) -> list[ET.Element]:
    def key(pair):
        idx, el = pair
        lid = el.get("localId", "")
        if lid.isdigit():
            return (0, int(lid), idx)
        return (1, 0, idx)

    return [el for _, el in sorted(enumerate(body_el), key=key)]


def _connections_in(el: ET.Element) -> list[ET.Element]:
    out = []
    for cpi in _descendants(el, "connectionPointIn"):
        out.extend(_children(cpi, "connection"))
    return out


def _has_connection(el: ET.Element) -> bool:
    return bool(_connections_in(el))


def _inbound_ports(body_el: ET.Element) -> dict[str, set[str]]:
    """Map each element's localId to the set of its output ports that
    other elements consume."""
    inbound: dict[str, set[str]] = {}
    for conn in _descendants(body_el, "connection"):
        src = conn.get("refLocalId", "")
        if src:
            inbound.setdefault(src, set()).add(conn.get("formalParameter", "").casefold())
    return inbound


def _walk_network(acc: _Acc, body_el: ET.Element, language: Language, pou_el: ET.Element) -> None:
    elements = _sorted_elements(body_el)
    ids = {el.get("localId", ""): el for el in elements if el.get("localId")}
    inbound = _inbound_ports(body_el)

    for conn in _descendants(body_el, "connection"):
        ref = conn.get("refLocalId", "")
        if ref and ref not in ids:
            acc.warn("dangling-connection", "connection references missing element %r" % ref)

    initial_steps: list[str] = []
    step_names: dict[str, str] = {}
    edges: dict[str, set[str]] = {}

    for el in elements:
        lid = el.get("localId", "")
        tag = _local(el.tag)
        for conn in _connections_in(el):
            src = conn.get("refLocalId", "")
            if src:
                edges.setdefault(src, set()).add(lid)

        if tag == "block":
            _walk_block(acc, el, lid, inbound)
        elif tag in ("inVariable", "outVariable", "inOutVariable"):
            expr = _text_of(_first(el, "expression"))
            acc.tokens.append(Token.operand(expr or "?"))
            acc.register_access(expr, read=tag != "outVariable", write=tag != "inVariable")
        elif tag == "contact":
            _walk_contact(acc, el, lid)
        elif tag == "coil":
            _walk_coil(acc, el, lid)
        elif tag == "jump":
            if _has_connection(el):
                acc.tokens.append(Token.operator(el.get("targetName", "jump"), "jump"))
                acc.decide("conditional-jump", lid)
        elif tag == "return":
            acc.tokens.append(Token.operator("RETURN", "return"))
            if language is Language.LD and _has_connection(el):
                acc.decide("conditional-return", lid)
        elif tag in ("step", "macroStep"):
            name = el.get("name", "")
            acc.tokens.append(Token.operator(name or "step", "step"))
            step_names[name.casefold()] = lid
            if el.get("initialStep", "").casefold() == "true":
                initial_steps.append(lid)
        elif tag == "transition":
            acc.tokens.append(Token.operator(el.get("name", "") or "transition", "transition"))
            acc.decide("transition", lid)
            _merge_condition(acc, el, pou_el)
        elif tag == "jumpStep":
            target = el.get("targetName", "").casefold()
            edges.setdefault(lid, set()).add("@step:" + target)
        elif tag == "actionBlock":
            _walk_action_block(acc, el, pou_el)
        # Rails, divergences, labels, connectors and comments carry no
        # tokens of their own; their wiring is already in `edges`.

    if language is Language.SFC and initial_steps:
        _check_reachability(acc, step_names, edges, initial_steps)


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
        holder = _first(el, group)
        if holder is None:
            continue
        for var in _children(holder, "variable"):
            if not _has_connection(var):
                continue
            if var.get("formalParameter", "").casefold() == "en":
                en_wired = True
            else:
                args += 1
    if en_wired:
        acc.decide("en-guard", lid)
    if type_name.casefold() in _SELECTOR_BLOCKS:
        acc.decide("selector", lid)

    key = type_name.casefold()
    if key in acc.pou_names or acc.context.is_fb(type_name):
        ports = {p for p in inbound.get(lid, set()) if p != "eno"}
        callee = el.get("instanceName", "") or type_name
        acc.fixed_calls.append(CallSite(callee, args, len(ports)))


def _walk_contact(acc: _Acc, el: ET.Element, lid: str) -> None:
    if el.get("negated", "").casefold() == "true":
        kind = "contact-nc"
    elif el.get("edge", "").casefold() == "rising":
        kind = "contact-p"
    elif el.get("edge", "").casefold() == "falling":
        kind = "contact-n"
    else:
        kind = "contact-no"
    acc.tokens.append(Token.operator(kind))
    acc.decide("contact", lid)
    var = _text_of(_first(el, "variable"))
    if var:
        acc.tokens.append(Token.operand(var))
        acc.register_access(var, read=True, write=False)
    else:
        acc.warn("unbound-contact", "contact %s has no variable" % (lid or "?"))


def _walk_coil(acc: _Acc, el: ET.Element, lid: str) -> None:
    storage = el.get("storage", "").casefold()
    if storage == "set":
        kind = "coil-set"
    elif storage == "reset":
        kind = "coil-reset"
    elif el.get("negated", "").casefold() == "true":
        kind = "coil-negated"
    else:
        kind = "coil"
    acc.tokens.append(Token.operator(kind))
    var = _text_of(_first(el, "variable"))
    if var:
        acc.tokens.append(Token.operand(var))
        acc.register_access(var, read=False, write=True)
    else:
        acc.warn("unbound-contact", "coil %s has no variable" % (lid or "?"))


def _named_bodies(pou_el: ET.Element, holder: str, item: str) -> dict[str, ET.Element]:
    """POU-level named actions or transitions: name -> body element."""
    out: dict[str, ET.Element] = {}
    group = _first(pou_el, holder)
    if group is None:
        return out
    for entry in _children(group, item):
        body = _first(entry, "body")
        name = entry.get("name", "")
        if name and body is not None:
            out[name.casefold()] = body
    return out


def _merge_body_element(acc: _Acc, body: ET.Element, pou_el: ET.Element, value_context: bool) -> None:
    """Merge the contents of a <body>-like element (inline condition,
    named action or named transition) into the accumulator."""
    for child in body:
        tag = _local(child.tag)
        if tag == "ST":
            acc.merge_fragment(_text_of(child), value_context)
        elif tag in ("FBD", "LD"):
            _walk_network(acc, child, _BODY_LANGUAGES[tag], pou_el)
        elif tag == "IL":
            acc.warn("il-body-skipped", "embedded IL fragment skipped")


def _merge_condition(acc: _Acc, transition_el: ET.Element, pou_el: ET.Element) -> None:
    condition = _first(transition_el, "condition")
    if condition is None:
        return
    inline = _first(condition, "inline")
    if inline is not None:
        _merge_body_element(acc, inline, pou_el, value_context=True)
        return
    reference = _first(condition, "reference")
    if reference is not None:
        name = reference.get("name", "").casefold()
        marker = "transition:" + name
        if name and marker not in acc.merged_refs:
            acc.merged_refs.add(marker)
            body = _named_bodies(pou_el, "transitions", "transition").get(name)
            if body is not None:
                _merge_body_element(acc, body, pou_el, value_context=True)
    # A wired condition is covered by the network walk itself.


def _walk_action_block(acc: _Acc, el: ET.Element, pou_el: ET.Element) -> None:
    for action in _children(el, "action"):
        qualifier = (action.get("qualifier") or "N").casefold()
        acc.tokens.append(Token.operator("action-" + qualifier.upper(), "action-" + qualifier))
        inline = _first(action, "inline")
        if inline is not None:
            _merge_body_element(acc, inline, pou_el, value_context=False)
            continue
        reference = _first(action, "reference")
        if reference is not None:
            name = reference.get("name", "").casefold()
            marker = "action:" + name
            if name and marker not in acc.merged_refs:
                acc.merged_refs.add(marker)
                body = _named_bodies(pou_el, "actions", "action").get(name)
                if body is not None:
                    _merge_body_element(acc, body, pou_el, value_context=False)


def _check_reachability(acc, step_names: dict[str, str], edges: dict[str, set[str]], roots: list[str]) -> None:
    resolved: dict[str, set[str]] = {}
    for src, targets in edges.items():
        out = set()
        for t in targets:
            if t.startswith("@step:"):
                step_id = step_names.get(t[len("@step:"):])
                if step_id:
                    out.add(step_id)
            else:
                out.add(t)
        resolved[src] = out
    seen = set(roots)
    queue = list(roots)
    while queue:
        node = queue.pop()
        for nxt in resolved.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for name, lid in sorted(step_names.items()):
        if lid not in seen:
            acc.warn("unreachable-step", "step %r is not reachable from an initial step" % name)


# ------------------------- POU extraction -------------------------


def extract_pous(
    root: ET.Element,
    path: str,
    context: TypeContext,
    global_names: frozenset[str],
    pou_names: frozenset[str],
) -> tuple[list[Pou], list[AnalysisWarning]]:
    """Second pass: build IR POUs from every <pou> in the document.

    `pou_names` holds the casefolded names of every POU in the whole
    input set so blocks that invoke them become call sites.
    """
    pous: list[Pou] = []
    warnings: list[AnalysisWarning] = []

    for pou_el in _descendants(root, "pou"):
        name = pou_el.get("name", "")
        if not name:
            warnings.append(AnalysisWarning("pou-parse-error", "pou without a name skipped", path, ""))
            continue
        kind = _POU_TYPE_MAP.get(pou_el.get("pouType", "").casefold(), PouKind.PROGRAM)

        raw_vars, return_spec, has_interface = _interface_vars(pou_el, path)
        if not has_interface:
            warnings.append(AnalysisWarning("missing-interface", "pou has no interface element", path, name))

        variables, ws = context.declare(name, raw_vars, return_spec if kind is PouKind.FUNCTION else None)
        warnings.extend(ws)

        body_el = _first(pou_el, "body")
        language = Language.ST
        acc = _Acc(
            path=path,
            pou=name,
            fb_instances=fb_instance_map(variables, context),
            pou_names=pou_names,
            context=context,
        )
        if body_el is not None:
            lang_el = None
            stray = None
            for child in body_el:
                tag = _local(child.tag)
                if tag in _BODY_LANGUAGES or tag == "IL":
                    lang_el = child
                    break
                if tag not in ("documentation", "addData"):
                    stray = tag
            if lang_el is None:
                # a body with content in no language we know is skipped,
                # not reported as an empty POU with zero complexity
                if stray is not None:
                    warnings.append(
                        AnalysisWarning(
                            "body-language-unsupported",
                            "body language %r is not supported; pou skipped" % stray,
                            path,
                            name,
                        )
                    )
                    continue
            elif _local(lang_el.tag) == "IL":
                warnings.append(
                    AnalysisWarning("il-body-skipped", "IL body is not supported; pou skipped", path, name)
                )
                continue
            else:
                language = _BODY_LANGUAGES[_local(lang_el.tag)]
                if language is Language.ST:
                    acc.merge_fragment(_text_of(lang_el), value_context=False)
                else:
                    _walk_network(acc, lang_el, language, pou_el)

        warnings.extend(acc.warnings)
        body = finalize_body(acc, variables, global_names, acc.fixed_calls)
        pous.append(
            Pou(
                name=name,
                kind=kind,
                language=language,
                variables=tuple(variables),
                body=body,
                source_ref=SourceRef(path, element=pou_el.get("globalId", "")),
            )
        )

    return pous, warnings
