"""The gap between homotopy-level and enriched-level adjoints.

The fixture has two objects and a single arrow whose automorphism group
has order two: the mapping data from x to y is connected but not
contractible.  Its quotient category is the walking arrow, where the
point inclusion at y does have a left adjoint, while the enriched functor
does not.  The demo computes every ingredient of that divergence.
"""

from finadj import corpus
from finadj.enriched import (
    classify_object,
    comparison_functor,
    enriched_comma_under,
    gaft_fin_decide,
    homotopy_adjoint_compare,
    homotopy_category,
    mapping_invariants,
)
from finadj.limits import has_finite_limits


def main():
    P = corpus.pz2()
    G = corpus.pz2_pick_y()

    print("mapping data of hom(x, y):", mapping_invariants(P, "x", "y"))
    print("classification of x:", classify_object(P, "x"))
    print("quotient category hom sizes:",
          {f"{a}->{b}": len(homotopy_category(P).category.hom(a, b))
           for a in P.objects for b in P.objects})

    comma = enriched_comma_under(G, "x")
    o = comma.base.objects[0]
    print("\nenriched comma at x has one object with",
          len(comma.base.hom(o, o).objects), "endo 1-cells")
    fin = gaft_fin_decide(G)
    print("enriched verdict:", "exists" if fin.exists else f"none at {fin.witness!r}")

    compare = homotopy_adjoint_compare(G)
    print("homotopy-level verdict:", "exists" if compare.h_result.exists else "none")
    print("finite-limit flag:", compare.limits_flag,
          "-> consistency", compare.consistent if compare.consistent is not None else "not applicable")

    F, profile = comparison_functor(G, "x")
    print("\ncomparison functor profile:", profile)
    h_comma = homotopy_category(comma.base).category
    print("quotient comma finitely complete:", has_finite_limits(h_comma).ok,
          "(the missing equalizer is exactly where the comparison argument needs one)")


if __name__ == "__main__":
    main()
