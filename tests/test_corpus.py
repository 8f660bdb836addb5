import itertools
import json

from finadj import corpus


def _reference_posets(n):
    """Every labelled poset on at most n elements, from all relations on
    the ordered pairs, one per canonical form: the least sorted relation
    over all relabellings."""
    out = []
    for k in range(n + 1):
        pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
        forms = set()
        for bits in itertools.product((False, True), repeat=len(pairs)):
            rel = {p for p, b in zip(pairs, bits) if b}
            antisymmetric = all((j, i) not in rel for i, j in rel)
            transitive = all((i, l) in rel for i, j in rel for j2, l in rel if j2 == j)
            if antisymmetric and transitive:
                perms = itertools.permutations(range(k))
                forms.add(min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms))
        for canon in sorted(forms, key=lambda c: (len(c), c)):
            objs = [f"p{i}" for i in range(k)]
            out.append(corpus.poset_category(objs, [(f"p{i}", f"p{j}") for i, j in canon]))
    return out


def test_posets_match_the_labelled_enumeration():
    for n in range(5):
        got = [json.dumps(P.to_dict()) for P in corpus.posets_up_to(n)]
        assert got == [json.dumps(P.to_dict()) for P in _reference_posets(n)], n


def test_poset_counts_per_size():
    # OEIS A000112: unlabelled posets on k elements
    sizes = [len(P.objects) for P in corpus.posets_up_to(5)]
    assert [sizes.count(k) for k in range(6)] == [1, 1, 2, 5, 16, 63]
