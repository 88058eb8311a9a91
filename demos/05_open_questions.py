"""Empirical probes of the open enumeration and implication questions.

Nothing here is a theorem: the probe reports exact counts of conservative
table families at small sizes, and searches for symmetric bisymmetric tables
that fail associativity or lack a neutral element (part (c), searched up to
n = 4 and not run at n = 5).
"""
import json

from uninorms import probe_open_questions

for n in (2, 3, 4):
    report = probe_open_questions(n)
    a = report["a"]
    print(f"n = {n}")
    print(f"  conservative tables:                 {a['conservative']}")
    print(f"  ... that are associative:            {a['conservative_associative']}")
    print(f"  ... that are symmetric:              {a['conservative_symmetric']}")
    print(f"  ... symmetric and associative:       {a['conservative_symmetric_associative']}")
    c = report["c"]
    print(f"  symmetric tables examined (all):     {c['symmetric_tables_examined']}")
    print(f"  bisymmetric among them: {c['stats'].get('bisymmetric_symmetric', 0)}, "
          f"of which {c['stats'].get('lacking_associativity', 0)} are not associative "
          f"and {c['stats'].get('lacking_neutral', 0)} have no neutral element")
    print()

print("n = 5, part (c):", probe_open_questions(5)["c"])
print()

print("One finding in full (a symmetric bisymmetric table that is not associative):")
report = probe_open_questions(3)
for finding in report["c"]["findings"]:
    if "not associative" in finding["finding"]:
        print(json.dumps(finding, indent=2))
        break
