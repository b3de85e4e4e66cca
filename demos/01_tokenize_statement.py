"""
Tokenizing Structured Text into operators and operands
=======================================================

Every complexity number starts with the lexer. This script feeds one
small ST statement through it and shows how each lexical element is
classified, then derives the four Halstead counts from the stream.
"""

from collections import Counter

from poumetrics import TokenClass, st_fragment_facts

# A single conditional assignment. Note the pieces that fold together:
# IF/THEN/END_IF is one compound operator, and the call parentheses of
# Limit(...) belong to the invocation operator itself.
SOURCE = "IF level > hi THEN level := Limit(mn := 0, in := level, mx := hi); END_IF;"

tokens = st_fragment_facts(SOURCE).tokens

print("source:", SOURCE)
print()
print("%-12s %-10s %s" % ("lexeme", "class", "identity"))
for tok in tokens:
    print("%-12s %-10s %s" % (tok.lexeme, tok.cls.name.lower(), tok.identity_key))

# Occurrence totals (N1, N2) count every token; vocabulary (n1, n2)
# counts distinct identities per class.
occurrences = Counter(tok.cls for tok in tokens)
unique = Counter()
for key in {(tok.cls, tok.identity_key) for tok in tokens}:
    unique[key[0]] += 1

n1_occ = occurrences[TokenClass.OPERATOR]
n2_occ = occurrences[TokenClass.OPERAND]
n1 = unique[TokenClass.OPERATOR]
n2 = unique[TokenClass.OPERAND]

print()
print("operator occurrences:", n1_occ)
print("operand occurrences: ", n2_occ)
print("distinct operators:  ", n1)
print("distinct operands:   ", n2)
print("program length:      ", n1_occ + n2_occ)
print("vocabulary:          ", n1 + n2)
