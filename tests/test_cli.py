"""End-to-end tests for the command line interface."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

import eqlef
from eqlef import load_complex
from eqlef.cli import build_parser, main
from eqlef.exact_algebra import IntMatrix, block_diagonal, char_poly, factor_over_Q
from eqlef.invariants import _encode_uz, universal_invariant
from eqlef.realize import RealizationTarget, realize
from eqlef.uz import UZClass

from matrix_builders import companion_matrix, coupled_blocks
from test_complex_model import (
    ORBIT_SIZE_REFUSAL,
    STABILIZER_REFUSALS,
    example2_with_orbit_size,
    minimal_document,
    sym3_weyl_document,
    sym5_free_document,
    sym5_translation_document,
    zn4_stabilizer_document,
)
from test_equivariant_groups import count_products
from test_exact_algebra import swinnerton_dyer

MINUS = "−"
OPLUS = "⊕"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def broken_square_document():
    """Two stacked boundaries whose composite is nonzero."""
    return {
        "format_version": 1,
        "group": {"builtin": "trivial"},
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {"degree": 0, "rank": 1, "relative_mask": [False], "map": [[1]]},
                    {
                        "degree": 1,
                        "rank": 1,
                        "relative_mask": [False],
                        "map": [[1]],
                        "boundary": [[1]],
                    },
                    {
                        "degree": 2,
                        "rank": 1,
                        "relative_mask": [False],
                        "map": [[1]],
                        "boundary": [[1]],
                    },
                ],
            }
        ],
    }


# ---------------------------------------------------------------------------
# class / factor


def test_class_identity_matrix(capsys):
    code, out, _ = run(capsys, ["class", "[[1,0],[0,1]]"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"+2·(x{MINUS}1)"
    assert lines[1] == f"characteristic polynomial: x²{MINUS}2x+1"
    assert lines[2] == f"factorization: (x{MINUS}1)^2"


def test_class_rotation_matrix(capsys):
    code, out, _ = run(capsys, ["class", "[[0,-1],[1,0]]"])
    assert code == 0
    assert out.splitlines()[0] == "+1·(x²+1)"


def test_class_nilpotent_matrix(capsys):
    code, out, _ = run(capsys, ["class", "[[0]]"])
    assert code == 0
    assert out.splitlines()[0] == "+1·(x)"


def test_class_empty_matrix(capsys):
    code, out, _ = run(capsys, ["class", "[]"])
    assert code == 0
    assert out.strip() == "0"


def test_factor_alias(capsys):
    code, out, _ = run(capsys, ["factor", "[[6]]"])
    assert code == 0
    assert out.splitlines()[0] == f"+1·(x{MINUS}6)"


def test_class_json_payload(capsys):
    code, out, _ = run(capsys, ["class", "--json", "[[1,0],[0,1]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"]["rendered"] == f"+2·(x{MINUS}1)"
    assert payload["class"]["terms"] == [
        {"coeff": 2, "coefficients": [-1, 1], "polynomial": f"x{MINUS}1"}
    ]
    assert payload["factorization"] == {
        "content": 1,
        "factors": [{"multiplicity": 2, "polynomial": f"x{MINUS}1"}],
    }


def test_class_rejects_rectangular(capsys):
    code, _, err = run(capsys, ["class", "[[1,2]]"])
    assert code == 1
    assert "matrix must be square" in err


def test_class_rejects_unparseable(capsys):
    code, _, err = run(capsys, ["class", "nonsense"])
    assert code == 1
    assert "could not parse matrix" in err


def test_class_computes_the_characteristic_polynomial_and_its_factors_once(
    capsys, monkeypatch
):
    calls = {"char_poly": 0, "factor_over_Q": 0}
    for name in calls:
        original = getattr(eqlef.exact_algebra, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):  # every binding, not only eqlef.cli's
            if module.__name__.startswith("eqlef") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run(capsys, ["class", "--json", "[[0,-1],[1,0]]"])
    assert code == 0
    assert calls == {"char_poly": 1, "factor_over_Q": 1}


def test_realize_then_class_derives_each_matrix_class_once(capsys):
    # class_of_matrix derives each degree's map by its diagonal blocks, in
    # document order: [1] (miss), A (miss), then diag(1, B′) splits into
    # [1] (hit), [1] (hit) and [5] (miss); the round-trip target: A (hit),
    # then B′ splits into [1] (hit) and [5] (hit); `class A`: A (hit).  Three
    # misses, six hits, and neither diag(1, B′) nor B′ is derived whole
    a, b_prime = "[[2,1,0],[1,3,1],[0,1,4]]", "[[1,2],[0,5]]"
    char_poly.cache_clear()
    factor_over_Q.cache_clear()
    assert run(capsys, ["realize", a, b_prime, "--json"])[0] == 0
    assert run(capsys, ["class", a, "--json"])[0] == 0
    for cached in (char_poly, factor_over_Q):
        info = cached.cache_info()
        assert (info.misses, info.hits) == (3, 6)


def test_realize_runs_no_canonical_search(capsys, monkeypatch):
    calls = []

    def counted(block):
        calls.append(block)
        return canonical_block(block)

    canonical_block = eqlef.invariants._canonical_block
    monkeypatch.setattr(eqlef.invariants, "_canonical_block", counted)
    a, b_prime = [[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[1, 2, 0], [0, 5, 1], [3, 0, 2]]
    assert run(capsys, ["realize", json.dumps(a), json.dumps(b_prime)])[0] == 0
    assert calls == []
    # the counter sees the normal form that `invariants` builds of the same model
    realized = realize(RealizationTarget(IntMatrix.from_rows(a), IntMatrix.from_rows(b_prime)))
    universal_invariant(realized)
    assert calls


def test_realize_never_factors_the_whole_top_map(capsys):
    # B′ has an x−1 block, so χ of the top map diag(1, B′), (x−1)·χ_B′, is
    # reducible; the model's class and the round-trip target need only
    # their blocks' χ
    a = "[[2,1,0],[1,3,1],[0,1,4]]"
    b_prime = IntMatrix.from_rows([[1, 2, 0], [0, 2, 1], [0, 1, 3]])
    char_poly.cache_clear()
    factor_over_Q.cache_clear()
    assert run(capsys, ["realize", a, json.dumps(b_prime.to_rows())])[0] == 0
    whole = char_poly(block_diagonal(IntMatrix.identity(1), b_prime))
    hits = factor_over_Q.cache_info().hits
    for polynomial in (whole, char_poly(b_prime)):  # (x−1)·χ_B′ and χ_B′ = (x−1)(x²−5x+5)
        factor_over_Q(polynomial)
        assert factor_over_Q.cache_info().hits == hits  # a miss: never factored


def block_triangular_64():
    """32 random 2×2 diagonal blocks, ±1 couplings above them: a degree-64 χ."""
    return coupled_blocks(random.Random(1964), [2] * 32)


def whole_matrix_class_output(m, as_json):
    """``eqlef class`` output, built from the factored χ of the whole matrix."""
    polynomial = char_poly(m)
    content, factors = factor_over_Q(polynomial)
    uz = UZClass(factors)
    if as_json:
        factorization = {
            "content": content,
            "factors": [{"polynomial": str(f), "multiplicity": k} for f, k in factors],
        }
        payload = {
            "class": _encode_uz(uz),
            "characteristic_polynomial": str(polynomial),
            "factorization": factorization,
        }
        return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    factored = " · ".join(f"({f})" + ("" if k == 1 else f"^{k}") for f, k in factors)
    return f"{uz}\ncharacteristic polynomial: {polynomial}\nfactorization: {factored}\n"


@pytest.mark.parametrize(
    "matrix",
    [
        IntMatrix.from_rows([[1, 2], [0, 5]]),
        IntMatrix.from_rows([[1, 2, 0], [0, 2, 1], [0, 1, 3]]),
        block_triangular_64(),
    ],
    ids=["B'", "B'-with-a-2x2-block", "64x64"],
)
def test_class_factors_each_block_and_prints_the_whole_matrix_output(capsys, matrix):
    outputs = []
    for flags in ([], ["--json"]):
        char_poly.cache_clear()
        factor_over_Q.cache_clear()
        code, out, _ = run(capsys, ["class", json.dumps(matrix.to_rows())] + flags)
        assert code == 0
        whole = char_poly(matrix)
        hits = factor_over_Q.cache_info().hits
        factor_over_Q(whole)
        assert factor_over_Q.cache_info().hits == hits  # a miss: never factored
        outputs.append(out)
    assert outputs == [whole_matrix_class_output(matrix, as_json) for as_json in (False, True)]


def test_realize_never_factors_a_block_triangular_target_whole(capsys):
    a = block_triangular_64()
    char_poly.cache_clear()
    factor_over_Q.cache_clear()
    assert run(capsys, ["realize", json.dumps(a.to_rows()), "[]"])[0] == 0
    hits = factor_over_Q.cache_info().hits
    factor_over_Q(char_poly(a))
    assert factor_over_Q.cache_info().hits == hits  # a miss: never factored


@pytest.mark.parametrize(
    "argv",
    [["class", "ZEROS"], ["realize", "ZEROS", "[]"], ["realize", "[[1]]", "ZEROS"]],
)
def test_matrix_order_is_limited(capsys, argv):
    zeros = json.dumps([[0] * 65] * 65)
    code, out, err = run(capsys, [zeros if arg == "ZEROS" else arg for arg in argv])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "65×65" in err and "MAX_MATRIX_ORDER = 64" in err


def test_realize_names_the_b_prime_limit(capsys):
    # the wedge model has one 3-cell more than b' has rows: a 64×64 b' would
    # make a rank-65 document that the user never wrote
    code, out, err = run(capsys, ["realize", "[]", json.dumps([[0] * 64] * 64)])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "'b_prime' is 64×64" in err and "MAX_MATRIX_ORDER − 1 = 63" in err
    assert "iso_classes" not in err


def test_invariants_names_the_expanded_rank_limit(capsys):
    # 4 free rows over the full Weyl group of Sym:5 expand to 480 rows
    code, out, err = run(capsys, ["invariants", json.dumps(sym5_free_document(4))])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "iso_classes[0].chain[0]" in err
    assert "rank 480" in err and "MAX_MATRIX_ORDER = 64" in err



def test_check_refuses_a_weyl_that_is_not_a_subgroup(capsys):
    code, out, err = run(capsys, ["check", json.dumps(sym3_weyl_document(["012", "120"]))])
    assert (code, out) == (1, "")
    assert err == (
        "error: weyl at iso_classes[0]: subgroup is not closed under multiplication "
        "at ('120', '120').\n"
    )


def test_check_refuses_an_orbit_size_that_is_not_the_weyl_index(capsys):
    # with orbit_size 5, example2's ell would read 10[1] ⊕ 0 instead of 2[1] ⊕ 0
    code, out, err = run(capsys, ["check", json.dumps(example2_with_orbit_size(5))])
    assert (code, out, err) == (1, "", f"error: {ORBIT_SIZE_REFUSAL}\n")


@pytest.mark.parametrize("stabilizer, message", STABILIZER_REFUSALS)
def test_check_refuses_a_stabilizer_that_is_not_a_subgroup(capsys, stabilizer, message):
    code, out, err = run(capsys, ["check", json.dumps(zn4_stabilizer_document(stabilizer))])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_check_of_sym5_translations_at_the_rank_limit_multiplies_little(capsys, monkeypatch):
    calls = count_products(monkeypatch)
    code, out, err = run(capsys, ["check", json.dumps(sym5_translation_document(64))])
    assert (code, err) == (0, "")
    assert out == "OK: 1 iso classes, group order 120, 0 fixed points\n"
    assert len(calls) == 2 * 4  # φ_π against the 4 generators of Sym:5, nothing for θ


@pytest.mark.parametrize("rank", [200, 10**6])
def test_invariants_names_the_pi1_rank_limit(capsys, rank):
    document = minimal_document()
    document["iso_classes"][0]["pi1_rank"] = rank
    start = time.perf_counter()
    code, out, err = run(capsys, ["invariants", json.dumps(document)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"pi1_rank at iso_classes[0] is {rank}" in err and "MAX_MATRIX_ORDER = 64" in err


def test_invariants_of_a_realized_64_cycle(capsys, tmp_path):
    # the model's u is the 64-cycle block, whose canonical search is short
    n = 64
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    path = tmp_path / "cycle64.json"
    assert run(capsys, ["realize", json.dumps(cycle), "[]", "--output", str(path)])[0] == 0
    start = time.perf_counter()
    code, out, err = run(capsys, ["invariants", "--json", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    (term,) = json.loads(out)["classes"][0]["u"]["terms"]
    assert len(term["matrix"]) == n


def test_invariants_names_the_canonical_node_limit(capsys, tmp_path, monkeypatch):
    all_ones = [[1] * 8 for _ in range(8)]  # its canonical search needs 36 nodes
    path = tmp_path / "ones8.json"
    assert run(capsys, ["realize", json.dumps(all_ones), "[]", "--output", str(path)])[0] == 0
    monkeypatch.setattr(eqlef.invariants, "MAX_CANONICAL_NODES", 35)
    code, out, err = run(capsys, ["invariants", str(path)])
    assert (code, out) == (1, "")
    assert err == (
        "error: the canonical form of a 8×8 block needs more than "
        "MAX_CANONICAL_NODES = 35 search nodes.\n"
    )


def test_class_names_the_recombination_limit(capsys):
    # irreducible, but 32 quadratics modulo every prime
    companion = companion_matrix(swinnerton_dyer(6))
    start = time.perf_counter()
    code, out, err = run(capsys, ["class", json.dumps(companion.to_rows())])
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "MAX_RECOMBINATION_SUBSETS = 65536" in err

@pytest.mark.parametrize("entry", ["1_0", "٣"])
def test_class_rejects_loose_integer_strings(capsys, entry):
    code, out, err = run(capsys, ["class", json.dumps([[entry]])])
    assert code == 1
    assert out == ""
    assert "matrix entry (0, 0) must be an integer" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer-string digit limit"
)
@pytest.mark.parametrize(
    "form", ["matrix", "document", "bare-matrix", "bare-document", "bare-inline"]
)
def test_overlong_integer_string_names_the_digit_limit(capsys, tmp_path, monkeypatch, form):
    """5000 digits, as a decimal string or as a bare JSON number (json.loads fails)."""
    monkeypatch.chdir(tmp_path)  # a short relative path, which is echoed whole
    bare = form.startswith("bare")
    number = "9" * 5000 if bare else '"' + "9" * 5000 + '"'
    if form.endswith("matrix"):
        argv = ["class", f"[[{number}]]"]
        where = "matrix input" if bare else "matrix entry (0, 0)"
    else:
        document = broken_square_document()
        document["iso_classes"][0]["chain"] = [
            {"degree": 0, "rank": 1, "relative_mask": [False], "map": [["N"]]}
        ]
        text = json.dumps(document).replace('"N"', number)
        path = "long.json"
        (tmp_path / path).write_text(text, encoding="utf-8")
        argv = ["invariants", text if form == "bare-inline" else path]
        where = {"bare-inline": "inline JSON document", "bare-document": repr(path)}.get(
            form, "map[0][0]"
        )
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert where in err
    assert bare or "5000 digits" in err
    assert f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}" in err


@pytest.mark.parametrize("command", ["class", "check", "invariants"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, monkeypatch, command):
    """50 000 nested arrays (an object for ``invariants``) overflow json.loads' recursion."""
    monkeypatch.chdir(tmp_path)  # a short relative path, which is echoed whole
    depth = 50_000
    if command == "invariants":
        text = '{"a":' * depth + "1" + "}" * depth
    else:
        text = "[" * depth + "]" * depth
    if command == "class":
        argv, where = ["class", text], "matrix input"
    else:
        path = "deep.json"
        (tmp_path / path).write_text(text, encoding="utf-8")
        argv, where = [command, path], repr(path)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert where in err and "nested too deeply" in err


def test_class_accepts_signed_decimal_strings(capsys):
    code, out, _ = run(capsys, ["class", '[[" -7 "]]'])
    assert code == 0
    assert out.splitlines()[0] == "+1·(x+7)"


# ---------------------------------------------------------------------------
# invariants


def test_invariants_human_output(capsys):
    code, out, _ = run(capsys, ["invariants", "example1"])
    assert code == 0
    assert "example1 (group order 2)" in out
    assert f"u = +[{MINUS}g]" in out
    assert f"ell = 0 {OPLUS} 0" in out
    assert "vanishing: ell zero: yes; lambda zero: yes; consistent: yes" in out


def test_invariants_json_is_byte_stable(capsys):
    code, first, _ = run(capsys, ["invariants", "--json", "example2"])
    assert code == 0
    code, second, _ = run(capsys, ["invariants", "--json", "example2"])
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["ell"]["rendered"] == f"2[1] {OPLUS} 0"


def test_invariants_human_and_json_agree(capsys):
    _, human, _ = run(capsys, ["invariants", "example2"])
    _, machine, _ = run(capsys, ["invariants", "--json", "example2"])
    payload = json.loads(machine)
    for entry in payload["classes"]:
        assert f"L = {entry['lefschetz']}" in human
    assert f"ell = {payload['ell']['rendered']}" in human


def test_invariants_verbose_notes(capsys):
    code, _, err = run(capsys, ["invariants", "--verbose", "example1"])
    assert code == 0
    assert "loaded complex (2 iso classes, group order 2)" in err


def test_invariants_rejects_unknown_input(capsys):
    code, _, err = run(capsys, ["invariants", "nosuch"])
    assert code == 1
    assert "is not a builtin name" in err


def test_invariants_reads_inline_and_file(capsys, tmp_path):
    _, document, _ = run(capsys, ["example", "example1"])
    code, inline_out, _ = run(capsys, ["invariants", document])
    assert code == 0
    path = tmp_path / "c.json"
    path.write_text(document, encoding="utf-8")
    code, file_out, _ = run(capsys, ["invariants", str(path)])
    assert code == 0
    assert inline_out == file_out


# ---------------------------------------------------------------------------
# realize


def test_realize_pinned_target(capsys):
    code, out, _ = run(capsys, ["realize", "[[0,1],[1,0]]", "[[3]]"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"+1·(x{MINUS}1) +1·(x+1) {MINUS}1·(x{MINUS}3)"
    document = json.loads("\n".join(lines[1:]))
    load_complex(document)  # must validate


def test_realize_output_file_passes_check(capsys, tmp_path):
    path = tmp_path / "wedge.json"
    code, out, _ = run(capsys, ["realize", "--output", str(path), "[[2]]", "[]"])
    assert code == 0
    assert out.strip() == f"+1·(x{MINUS}2)"
    code, out, _ = run(capsys, ["check", str(path)])
    assert code == 0
    assert out.strip() == "OK: 1 iso classes, group order 1, 0 fixed points"


def test_realize_json_payload_verified(capsys):
    code, out, _ = run(capsys, ["realize", "--json", "[[2]]", "[]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["class"]["rendered"] == f"+1·(x{MINUS}2)"
    load_complex(payload["document"])


def test_realize_rejects_rectangular(capsys):
    code, _, err = run(capsys, ["realize", "[[1,2]]", "[]"])
    assert code == 1
    assert "square" in err


def seeded_pair(seed, n, m, triangular=False):
    """A seeded n×n ``a`` and m×m ``b'`` with entries in [−3, 3], as JSON rows."""
    rng = random.Random(seed)
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    b_prime = [
        [rng.randint(-3, 3) if j >= i or not triangular else 0 for j in range(m)]
        for i in range(m)
    ]
    if triangular:
        b_prime[0][0] = 1  # an x−1 block beside the identity 3-cell
    return json.dumps(a), json.dumps(b_prime)


# sha256 of `eqlef realize A B' --json` stdout, and of the text output with
# `--output` (stdout, then the written document): (json, text) per pair
REALIZE_SHA256 = {
    (1, 1, 1, False): (
        "db93eb5b7dd6e1b3eec680f469448a2a2024c48a676626aee03ba81cf1221680",
        "9d5011aed870ec3f7e74bc6f8cf24371518c9b02ed706df3400b62f2ddb855fd",
    ),
    (8, 8, 4, False): (
        "30974d85c8e4128fce485ede6d38f14f188c7c91e85d8bee546777967c8a5d0a",
        "11a369c7444915f8be4dbc467a8f8262eff5d502f8de543741d9fe8ddc964d1d",
    ),
    (32, 32, 16, False): (
        "916339ff97df40cc4eab8c8581c01dfb66f5f8ddb82ef683fe48bb90e0a89491",
        "ae3ec81c33c5ee8f38e90edd5d2eb72bec0591cf6ac8f8b3aea45875fca72945",
    ),
    (5, 6, 5, True): (
        "88010d931233f658a7c27380195e25db8da930e9f9f89ff8833e99e5a6b71440",
        "e46481b1dc30166652f625ca31bcf03f3e5c0ca204259120d66aa34a34c479a6",
    ),
    (0, 0, 3, False): (
        "f8a8008f523838430bfa4d2b908e1366b4d8403b9304864739ae042ab7f07c5f",
        "942bc84152d68cc0c1319be07f3786844a972b3adc3cf617271ba1140e7f4e2c",
    ),
    (4, 4, 0, False): (
        "ae66b145fe7f2a8e980443f212a7d70bff7c27a9df312b85e4e53ceee2bd1926",
        "231e975c2286c51f902e4ee6afafead30476f84bcaf8399340f3a2a098518631",
    ),
}


@pytest.mark.parametrize("seed, n, m, triangular", list(REALIZE_SHA256))
def test_realize_output_bytes_are_pinned(capsys, tmp_path, seed, n, m, triangular):
    a, b_prime = seeded_pair(seed, n, m, triangular)
    code, json_out, _ = run(capsys, ["realize", a, b_prime, "--json"])
    assert code == 0
    path = tmp_path / "wedge.json"
    code, text_out, _ = run(capsys, ["realize", a, b_prime, "--output", str(path)])
    assert code == 0
    digests = (
        hashlib.sha256(json_out.encode()).hexdigest(),
        hashlib.sha256(text_out.encode() + path.read_bytes()).hexdigest(),
    )
    assert digests == REALIZE_SHA256[seed, n, m, triangular]


# ---------------------------------------------------------------------------
# check


def test_check_builtin(capsys):
    code, out, _ = run(capsys, ["check", "example3"])
    assert code == 0
    assert out.strip() == "OK: 5 iso classes, group order 4, 5 fixed points"


def test_check_json_payload(capsys):
    code, out, _ = run(capsys, ["check", "--json", "example3"])
    assert code == 0
    assert json.loads(out) == {
        "valid": True,
        "iso_classes": 5,
        "group_order": 4,
        "fixed_points": 5,
    }


def test_check_reports_boundary_failure(capsys):
    code, out, err = run(capsys, ["check", json.dumps(broken_square_document())])
    assert code == 1
    assert out == ""
    assert (
        "error: boundary composition is nonzero between degrees 2 and 1 "
        "of (subgroup {1}, component 'c')." in err
    )


@pytest.mark.parametrize("action", [[], 0, False, ""])
def test_check_rejects_falsy_action(capsys, action):
    document = broken_square_document()
    document["iso_classes"][0]["action"] = action
    code, _, err = run(capsys, ["check", json.dumps(document)])
    assert code == 1
    assert "expected an object at iso_classes[0].action" in err


def group_document(group):
    return json.dumps({"format_version": 1, "group": group, "iso_classes": []})


# A Latin square with identity 'e' in which every element is its own inverse:
# the smallest kind of loop that is not a group (order 5).
LOOP_LABELS = ["e", "a", "b", "c", "d"]
LOOP_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_check_rejects_non_associative_loop(capsys):
    assert all(sorted(row) == list(range(5)) for row in LOOP_TABLE)
    assert all(sorted(col) == list(range(5)) for col in zip(*LOOP_TABLE))
    document = group_document({"labels": LOOP_LABELS, "table": LOOP_TABLE})
    code, out, err = run(capsys, ["check", document])
    assert code == 1
    assert out == ""
    match = re.fullmatch(
        r"error: multiplication table is not associative at "
        r"\('(\w)', '(\w)', '(\w)'\)\.\n",
        err,
    )
    assert match is not None, err
    a, b, c = (LOOP_LABELS.index(label) for label in match.groups())
    t = LOOP_TABLE
    assert t[t[a][b]][c] != t[a][t[b][c]]


@pytest.mark.parametrize("name", ["Zn:1_2", "Sym:٣", "Zn:+4", "Zn: 4"])
def test_check_rejects_loose_builtin_group_numbers(capsys, name):
    code, out, err = run(capsys, ["check", group_document({"builtin": name})])
    assert code == 1
    assert out == ""
    assert "malformed" in err and f"'{name}'" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer-string digit limit"
)
@pytest.mark.parametrize("prefix", ["Sym:", "Zn:"])
def test_overlong_builtin_group_number_names_the_digit_limit(capsys, prefix):
    name = prefix + "9" * 5000
    code, out, err = run(capsys, ["check", group_document({"builtin": name})])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert "5000 digits" in err
    assert f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}" in err


@pytest.mark.parametrize("prefix", ["Sym:", "Zn:"])
def test_long_builtin_group_number_names_its_length(capsys, prefix):
    name = prefix + "9" * 4000  # within the interpreter's digit limit
    code, out, err = run(capsys, ["check", group_document({"builtin": name})])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert "4000-digit number" in err
    assert "MAX_GROUP_ORDER = 120" in err


@pytest.mark.parametrize(
    "name", ["Q" * 4000, "Zn:" + "9" * 4000 + "x"], ids=["unknown", "malformed"]
)
def test_long_unknown_or_malformed_group_name_names_its_length(capsys, name):
    code, out, err = run(capsys, ["check", group_document({"builtin": name})])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert f"({len(name)} characters)" in err


LONG = "x" * 10_000


def long_rank_document():
    document = minimal_document()
    document["iso_classes"][0]["chain"][0]["rank"] = LONG
    return json.dumps(document)


def long_field_document():
    document = minimal_document()
    document[LONG] = 1
    return json.dumps(document)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["class", '[["x"]]'], "matrix entry (0, 0) must be an integer, got 'x'."),
        (["class", '"x"'], "matrix input must be a JSON list of rows, got '\"x\"'."),
        (
            ["class", "nonsense"],
            "could not parse matrix 'nonsense': Expecting value: line 1 column 1 (char 0).",
        ),
        (
            ["check", "nosuch"],
            "input 'nosuch' is not a builtin name (example1, example2, example3), "
            "an existing file, or an inline JSON document.",
        ),
    ],
)
def test_short_echoed_input_is_whole(capsys, argv, line):
    assert run(capsys, argv) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv, message, echoed",
    [
        (["class", json.dumps([[LONG]])], "matrix entry (0, 0) must be an integer, got ", LONG),
        (
            ["class", json.dumps(LONG)],
            "matrix input must be a JSON list of rows, got ",
            json.dumps(LONG),
        ),
        (["class", LONG], "could not parse matrix ", LONG),
        (
            ["check", long_rank_document()],
            "expected an integer at iso_classes[0].chain[0].rank, got ",
            LONG,
        ),
        (["check", long_field_document()], "unknown field ", LONG),
        (["check", LONG], "input ", LONG),
    ],
    ids=[
        "matrix-entry", "matrix-rows", "matrix-syntax", "document-integer", "document-field", "input"
    ],
)
def test_long_echoed_input_is_shortened(capsys, argv, message, echoed):
    # the quoted value keeps its first 64 characters and names its length
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 300
    quoted = repr(echoed)
    assert err.startswith(f"error: {message}{quoted[:64]}… ({len(quoted)} characters)")


def test_short_output_path_error_is_whole(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = "missing/" + "x" * 56  # 64 characters, in a directory that does not exist
    code, out, err = run(capsys, ["example", "example1", "--output", path])
    expected = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    assert (code, out, err) == (1, "", f"error: {expected}\n")


def test_long_output_path_error_is_shortened(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = "missing/" + LONG
    code, out, err = run(capsys, ["example", "example1", "--output", path])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert f"'{path[:64]}… ({len(path)} characters)'" in err


def test_long_unknown_weyl_label_is_shortened(capsys):
    document = json.loads(run(capsys, ["example", "example1"])[1])
    document["iso_classes"][0]["weyl"] = ["1", LONG]
    code, out, err = run(capsys, ["check", json.dumps(document)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert f"label '{LONG[:64]}… ({len(LONG)} characters)'; known labels: ['1', 'g']." in err


def test_short_document_path_is_whole(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = "d" * 59 + ".json"  # 64 characters
    (tmp_path / path).write_text("nonsense", encoding="utf-8")
    assert run(capsys, ["check", path]) == (
        1,
        "",
        f"error: could not parse document '{path}': "
        "Expecting value: line 1 column 1 (char 0).\n",
    )


def test_long_document_path_is_shortened(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    directory = "/".join(["d" * 199] * 4)  # each part within the file system's name limit
    path = f"{directory}/{'x' * 200}"
    assert len(path) == 1000
    (tmp_path / directory).mkdir(parents=True)
    (tmp_path / path).write_text("nonsense", encoding="utf-8")
    code, out, err = run(capsys, ["check", path])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 300
    quoted = repr(path)
    assert err.startswith(
        f"error: could not parse document {quoted[:64]}… ({len(quoted)} characters): "
    )


# ---------------------------------------------------------------------------
# example and argument handling


def test_example_emits_loadable_document(capsys):
    code, out, _ = run(capsys, ["example", "example2"])
    assert code == 0
    c = load_complex(json.loads(out))
    assert [iso.component for iso in c.classes] == ["S3", "S2"]


def test_example_rejects_unknown_name(capsys):
    code, _, err = run(capsys, ["example", "example9"])
    assert code == 1
    assert "invalid choice" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, ["bogus"])
    assert code == 1
    assert "invalid choice" in err


def test_missing_argument_exits_one(capsys):
    code, _, err = run(capsys, ["class"])
    assert code == 1
    assert "required: matrix" in err


def test_internal_error_traceback_only_under_verbose(capsys, monkeypatch):
    from eqlef import cli

    def broken_handler(args):
        raise RuntimeError("handler exploded")

    monkeypatch.setattr(cli, "cmd_check", broken_handler)
    code, out, err = run(capsys, ["check", "example1"])
    assert code == 2
    assert out == ""
    assert err == "internal error: handler exploded\n"
    code, _, err = run(capsys, ["check", "--verbose", "example1"])
    assert code == 2
    assert err.startswith("internal error: handler exploded\nTraceback (most recent call last):")
    assert err.endswith("RuntimeError: handler exploded\n")


# ---------------------------------------------------------------------------
# one parser per process


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_shared_parser_keeps_no_output_options_between_calls(capsys, tmp_path):
    path = tmp_path / "class.json"
    code, out, _ = run(capsys, ["class", "[[2]]", "--json", "--output", str(path)])
    assert code == 0
    assert out == ""
    written = path.read_text(encoding="utf-8")
    assert json.loads(written)["class"]["rendered"] == f"+1·(x{MINUS}2)"
    code, out, _ = run(capsys, ["class", "[[2]]"])
    assert code == 0
    assert out.splitlines()[0] == f"+1·(x{MINUS}2)"
    assert path.read_text(encoding="utf-8") == written


def test_shared_parser_recovers_after_a_usage_error(capsys):
    code, _, err = run(capsys, ["class"])
    assert code == 1
    assert "required: matrix" in err
    code, out, err = run(capsys, ["check", "example1"])
    assert code == 0
    assert out.strip() == "OK: 2 iso classes, group order 2, 2 fixed points"
    assert err == ""


def test_shared_parser_keeps_no_verbose_between_calls(capsys):
    code, _, err = run(capsys, ["invariants", "--verbose", "example1"])
    assert code == 0
    assert "loaded complex" in err
    code, _, err = run(capsys, ["invariants", "example1"])
    assert code == 0
    assert err == ""


# ---------------------------------------------------------------------------
# invocation forms


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "eqlef.cli", "class", "[[2]]"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == f"+1·(x{MINUS}2)"


@pytest.mark.skipif(shutil.which("eqlef") is None, reason="console script not on PATH")
def test_console_script():
    result = subprocess.run(
        ["eqlef", "check", "example1"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "OK: 2 iso classes" in result.stdout
