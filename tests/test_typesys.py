"""The classification memo of `TypeContext` and the shared specs of `named`.

`TypeContext.declare` classifies each distinct spec once per context and
keeps the outcome, unless the classification warned.  These tests pin
what the memo must not change: a later type or function block is seen,
every warning names its own variable, and a context crosses a pickle as
if it were fresh.
"""

from __future__ import annotations

import pickle

from poumetrics import TypeClass, VarSection
from poumetrics.ir import VariableDecl
from poumetrics.typesys import RawDecl, TypeContext, TypeSpec, named

LOCAL = VarSection.LOCAL


def declared(context: TypeContext, *pairs: tuple[str, str]):
    """(variables, warnings) of `name : TYPE;` declarations of POU P."""
    return context.declare("P", [RawDecl(name, LOCAL, named(type_name)) for name, type_name in pairs], path="p.st")


def shape(variables):
    return [(v.name, v.type_class, v.type_name, len(v.sub_variables)) for v in variables]


def test_a_definition_after_a_declaration_changes_the_next_classification():
    context = TypeContext()
    context.define("T", named("INT"))
    variables, warnings = declared(context, ("a", "T"), ("b", "T"))
    assert warnings == []
    assert shape(variables) == [("a", TypeClass.COMPLEX, "T", 0), ("b", TypeClass.COMPLEX, "T", 0)]
    context.define("T", TypeSpec("struct", fields=("x", "y", "z")))
    variables, warnings = declared(context, ("c", "T"))
    assert warnings == []
    assert shape(variables) == [("c", TypeClass.COMPLEX, "T", 3)]


def test_a_function_block_registered_after_a_declaration_changes_the_next_classification():
    context = TypeContext()
    context.register_fb("Motor", (("on", VarSection.INPUT), ("running", VarSection.OUTPUT)))
    context.define("Drive", named("Motor"))
    variables, warnings = declared(context, ("m", "Motor"), ("d", "Drive"))
    assert warnings == []
    assert [len(v.sub_variables) for v in variables] == [2, 2]
    context.register_fb("Motor", (("on", VarSection.INPUT), ("speed", VarSection.INPUT), ("running", VarSection.OUTPUT)))
    variables, warnings = declared(context, ("m", "Motor"), ("d", "Drive"))
    assert warnings == []
    assert [len(v.sub_variables) for v in variables] == [3, 3]


def test_each_declaration_of_an_unknown_type_warns_with_its_own_name():
    context = TypeContext()
    variables, warnings = declared(context, ("first", "Nowhere"), ("second", "Nowhere"))
    _, later = declared(context, ("third", "Nowhere"))
    expected = "type 'Nowhere' of %r is not defined; treated as Complex without sub-variables"
    assert [(w.code, w.path, w.pou, w.message) for w in warnings + later] == [
        ("unknown-type", "p.st", "P", expected % name) for name in ("first", "second", "third")
    ]
    assert shape(variables) == [("first", TypeClass.COMPLEX, "Nowhere", 0), ("second", TypeClass.COMPLEX, "Nowhere", 0)]
    context.define("Nowhere", TypeSpec("array", dims=((1, 4),), element=named("INT")))
    variables, warnings = declared(context, ("fourth", "Nowhere"))
    assert warnings == []
    assert shape(variables) == [("fourth", TypeClass.COMPLEX, "Nowhere", 4)]


def test_the_memo_gives_what_a_fresh_context_gives():
    """Every distinct spec, declared twice, in one context and then one
    declaration per fresh context: the same records, of the record class."""
    specs = [
        named("INT"),
        named("T"),
        named("Ton"),
        TypeSpec("string", name="WSTRING"),
        TypeSpec("array", dims=((0, 2), (1, 2)), element=named("T")),
        TypeSpec("struct", fields=("a", "b")),
        TypeSpec("enum"),
        TypeSpec("subrange", name="INT", element=named("INT")),
    ]
    decls = [RawDecl("v%d" % i, LOCAL, spec) for i, spec in enumerate(specs + specs)]

    def fresh():
        context = TypeContext()
        context.define("T", TypeSpec("struct", fields=("x",)))
        return context

    variables, warnings = fresh().declare("P", decls)
    assert warnings == []
    assert variables == [fresh().declare("P", [d])[0][0] for d in decls]
    assert {type(v) for v in variables} == {VariableDecl}


def test_a_context_with_a_filled_memo_pickles_as_a_fresh_one():
    """The memos stay out of the pickle, so the shared context sent to
    each forked child does not grow with the declarations classified."""

    def context():
        return TypeContext(
            4,
            {"t": TypeSpec("struct", fields=("a", "b")), "alias": named("T")},
            {"motor": (("on", VarSection.INPUT), ("running", VarSection.OUTPUT))},
        )

    filled = context()
    variables, warnings = declared(filled, ("a", "T"), ("b", "Alias"), ("m", "Motor"), ("i", "INT"), ("u", "Gone"))
    assert len(warnings) == 1
    assert filled._classified and filled._resolved
    blob = pickle.dumps(filled)
    assert blob == pickle.dumps(context())
    copy = pickle.loads(blob)
    assert copy._classified == {} and copy._resolved == {}
    assert declared(copy, ("a", "T"), ("b", "Alias"), ("m", "Motor"), ("i", "INT"), ("u", "Gone")) == (variables, warnings)
