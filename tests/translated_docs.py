"""Chain-map documents translated by one vector, for tests and for CI.

If f commutes with the twisted boundary, so does f·t^u for any u: over the
translation group the ring is commutative, so multiplying every map entry by
t^u commutes with ψ(∂) on the left and with ∂ on the right.  With u of
thousands of digits this drives the chain check's large-coordinate path.

Run as a script, it reads a one-class document of pi1_rank k and writes it
translated by a k-vector of ``digits``-digit coordinates drawn from
``random.Random(digits)``::

    python tests/translated_docs.py torus7.json 4000 > torus7_translated.json

It imports only the standard library, so it runs without pytest or hypothesis.
"""

import copy
import json
import random
import sys


def translated(document, u, perturb=None):
    """``document`` with every chain-map term multiplied by t^u.

    Every nonzero entry of every map is moved, in row-major order.
    ``perturb = (degree, term)`` adds 1 to the first coordinate of that map
    term, counted over the nonzero terms of the degree's map in that order.
    """
    document = copy.deepcopy(document)
    for degree in document["iso_classes"][0]["chain"]:
        count = 0
        for row in degree["map"]:
            for c, entry in enumerate(row):
                moved = []
                for term in entry if isinstance(entry, list) else [entry]:
                    vector = term["vector"] if isinstance(term, dict) else [0] * len(u)
                    coefficient = term["coeff"] if isinstance(term, dict) else term
                    if coefficient == 0:
                        continue
                    vector = [a + b for a, b in zip(vector, u)]
                    if perturb == (degree["degree"], count):
                        vector[0] += 1
                    count += 1
                    moved.append({"coeff": coefficient, "vector": vector})
                row[c] = moved or 0
    return document


def large_vector(k, digits, rng):
    """k coordinates, each of exactly ``digits`` digits with a random sign."""
    return [rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(k)]


if __name__ == "__main__":
    path, digits = sys.argv[1], int(sys.argv[2])
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    k = document["iso_classes"][0]["pi1_rank"]
    print(json.dumps(translated(document, large_vector(k, digits, random.Random(digits)))))
