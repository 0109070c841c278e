"""logrel: basic-lemma checks of generated terms over two powerset models.

For each of the four criterion-4 types, a batch holds terms checked
against the diagonal and terms checked against relations between the two
2-element carriers: all 16 relations for the two arrow types, and a fixed
half of them for each of the two cheap T-types.  Terms and their order are
seeded; the multiset of base relations is fixed, so the batch's case count
does not depend on the seed.  The counts put the batch median in the middle
of the ``b -> T b`` items and the tail percentile in the middle of the
``T b -> T b`` items.
"""

from __future__ import annotations

import itertools
import random

LEFT = ("a0", "a1")
RIGHT = ("z0", "z1")
CTX = {"x": "b", "m": "T b"}
MAX_SIZE = 8
RELATIONS = [tuple(c) for r in range(5)
             for c in itertools.combinations([(x, y) for x in LEFT for y in RIGHT], r)]
# type -> (diagonal items, base relations)
BATCH = {"T b": (2, RELATIONS[0::2]), "T (b * Unit)": (2, RELATIONS[1::2]),
         "b -> T b": (4, RELATIONS), "T b -> T b": (4, RELATIONS)}


class Logrel:
    name = "logrel"

    def generate(self, lib, seed, k):
        ml = lib.metalang
        rng = random.Random(f"logrel:{seed}:{k}")
        ctx = {x: ml.parse_ty(t) for x, t in CTX.items()}
        raw = []
        for ty_src, (diag, rels) in BATCH.items():
            ty = ml.parse_ty(ty_src)
            for base in [None] * diag + rels:
                term = None
                while term is None:
                    term = ml.synthesize(rng, ctx, ty, MAX_SIZE)
                raw.append((ml.term_str(term), base))
        rng.shuffle(raw)
        return raw

    def build(self, lib, raw):
        fs, ml = lib.finset, lib.metalang
        b, z = fs.FinSet(LEFT), fs.FinSet(RIGHT)
        m1 = ml.Model(lib.monads.powerset_monad(), {"b": b})
        m2 = ml.Model(lib.monads.powerset_monad(), {"b": z})
        ctx = {x: ml.parse_ty(t) for x, t in CTX.items()}
        diag = {"b": fs.Rel.diagonal(b)}
        rels = {pairs: {"b": fs.Rel(b, z, pairs)} for pairs in RELATIONS}
        return [(m1, m1, diag, ctx, ml.parse(src)) if base is None
                else (m1, m2, rels[base], ctx, ml.parse(src))
                for src, base in raw]

    def run(self, lib, item):
        return lib.metalang.basic_lemma_check(*item)

    def score(self, lib, item, rep):
        # the fundamental property: every generated term is related to itself
        return rep.ok, rep.cases, (rep.ok, rep.cases)
