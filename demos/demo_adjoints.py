"""Walk through the adjoint decision procedure on small instances.

The engine decides whether a functor G has a left adjoint by checking
that every comma category under an anchor has an initial object, then
constructs the adjoint and verifies the certificate.  A brute-force
enumeration of all candidate functors and units double-checks the verdict.
"""

from finadj import corpus
from finadj.adjoint import (
    brute_force_left_adjoint,
    comma_under,
    gaft_decide,
    solution_set_condition,
    verify_adjunction,
)
from finadj.limits import initial_objects


def show(title):
    print()
    print(f"== {title}")


def main():
    cats = corpus.categories()

    show("a monotone map with a left adjoint")
    G = corpus.monotone_functor(cats["chain3"], cats["two"], {"0": "0", "1": "1", "2": "1"})
    for c in G.target.objects:
        comma = comma_under(G, c)
        print(f"comma under {c}: objects {list(comma.base.objects)}, "
              f"initial {initial_objects(comma.base)}")
    result = gaft_decide(G)
    cert = result.certificate
    print("left adjoint on objects:", cert.left.obj_map)
    print("unit components:", cert.unit)
    print("verified:", verify_adjunction(cert).ok)
    oracle = brute_force_left_adjoint(G)
    print("brute force agrees:", oracle.exists, f"({len(oracle.pairs)} certified pair)")

    show("a point into a discrete pair: no adjoint")
    G2 = corpus.functor(cats["one"], cats["disc2"], {"*": "x"})
    r2 = gaft_decide(G2)
    print("verdict:", "exists" if r2.exists else f"none, witnessed at anchor {r2.witness!r}")

    show("the two-element group collapsing to a point: solution sets are not enough")
    G3 = corpus.functor(cats["z2"], cats["one"], {x: "*" for x in cats["z2"].objects}, {"s": "id_*"})
    report = solution_set_condition(G3)
    print("solution sets:", report.sets)
    print("but gaft verdict:", "exists" if gaft_decide(G3).exists else "none",
          "(the comma has parallel endomorphisms, so no initial object)")


if __name__ == "__main__":
    main()
