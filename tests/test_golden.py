"""Golden output: the CLI writes the same bytes for the same parameters.

The digests pin what ``construct``, ``simulate`` and ``oracle`` print or
write for fixed parameters and seeds, and which near-bound runs exhaust
their budget; search order, node counting and file formatting all show up
in them. A change that alters output on purpose re-records them and says
so.
"""

import hashlib

from graypool.cli import main

CONSTRUCT_CASES = {
    "bba-5-2-10-first-2-3": ("bba", 5, 2, 10, 0, ("--first-address", "2,3")),
    "bba-8-3-30-s4": ("bba", 8, 3, 30, 4, ()),
    "bba-10-3-100-s1": ("bba", 10, 3, 100, 1, ()),
    "bba-12-4-350-s0": ("bba", 12, 4, 350, 0, ()),
    "rcbba-12-3-200-s2": ("rcbba", 12, 3, 200, 2, ()),
    "rcbba-18-6-1000-s0": ("rcbba", 18, 6, 1000, 0, ()),
    "rcbba-8-4-40-s3": ("rcbba", 8, 4, 40, 3, ()),
    "maximal-5-2": ("maximal", 5, 2, None, 0, ()),
    "maximal-6-4": ("maximal", 6, 4, None, 0, ()),
    "maximal-7-4": ("maximal", 7, 4, None, 1, ()),
    "maximal-9-2": ("maximal", 9, 2, None, 0, ()),
    # Two built bases, (5, 2) and (7, 3), draw their pool permutations from one generator.
    "maximal-8-3": ("maximal", 8, 3, None, 0, ()),
}

ORACLE_CASES = {
    "oracle-max-5-2": ("max", "--m", "5", "--r", "2"),
    "oracle-max-6-3": ("max", "--m", "6", "--r", "3"),
    "oracle-max-7-3-limit": ("max", "--m", "7", "--r", "3", "--node-limit", "100000"),
    "oracle-max-6-2-limit": ("max", "--m", "6", "--r", "2", "--node-limit", "50"),
    "oracle-balance-5-2-5": ("balance", "--m", "5", "--r", "2", "--n", "5"),
    "oracle-balance-6-2-9": ("balance", "--m", "6", "--r", "2", "--n", "9"),
    "oracle-balance-7-2-18": ("balance", "--m", "7", "--r", "2", "--n", "18"),
    # The optimum, 3, is above the parity floor of 1, so the search runs to its end.
    "oracle-balance-6-3-3": ("balance", "--m", "6", "--r", "3", "--n", "3"),
}

# Sweeps over the rcbba (12, 3, 200) code above, printed to stdout.
SIMULATE_CASES = {
    "simulate-fn-exhaustive": ("--max-errors", "2", "--mode", "exhaustive"),
    "simulate-fp-exhaustive": ("--max-errors", "1", "--mode", "exhaustive",
                               "--error-type", "false-positive"),
    "simulate-fn-sampled": ("--max-errors", "3", "--mode", "sampled", "--samples", "500",
                            "--seed", "3"),
    "simulate-fp-sampled": ("--max-errors", "2", "--mode", "sampled", "--samples", "300",
                            "--seed", "4", "--error-type", "false-positive"),
}

# Codes printed to stdout (no --out): rcbba's carries its provenance. Their
# digests equal those of the JSON files the same runs write with --out.
STDOUT_CASES = {
    "stdout-bba-8-3-30-s4": ("bba", 8, 3, 30, 4, ()),
    "stdout-rcbba-12-3-200-s2": ("rcbba", 12, 3, 200, 2, ()),
    "stdout-maximal-8-3": ("maximal", 8, 3, None, 0, ()),
}

# A hand-written CSV code: CRLF line ends, a blank line and cells padded
# with spaces and tabs. Its second and third addresses have the same union
# as its first two, so `validate` exits 1.
LOOSE_CSV = "1, 0,1 ,0\r\n\r\n1,1,\t0,0\r\n 0,1,1,1\r\n0,0,0,1\r\n"

# Near-bound rcbba runs at budget 20000: most seeds end in exit 2.
NEAR_BOUND_RUNS = [((14, 4, 950), seed) for seed in range(10)] + [
    ((14, 3, 350), seed) for seed in range(16)
]

GOLDEN = {
    "bba-5-2-10-first-2-3.json": "eb5b509a20f294e891956c5e2e71d103830a97715ea6067d273866e0b87fcfb2",
    "bba-5-2-10-first-2-3.csv": "8af43b0a7166108027dfb2f1dddbff3c0607e1a499c17dcaf02d0aa9ead25628",
    "bba-8-3-30-s4.json": "a5df9beb22a2d9f650561c6c7921d27a30c5f02c33256faa0e2afd6ee5f5a2cc",
    "bba-8-3-30-s4.csv": "1cf41c9da4100d59288c35ded2e719a2811e1cb60a0237386bf143435b2fecaf",
    "bba-10-3-100-s1.json": "ef8db808578626be863ea37d6e0ddbc5971bdd1f4b811c76e011a64212fac908",
    "bba-10-3-100-s1.csv": "a28f51213dce94eb163d27e832c3a1e262f72f3f6dda4552ff8f9c4d04bc3365",
    "bba-12-4-350-s0.json": "09463f1f674d0fb453f9fdf3da611b5de3fec44c39e317d5fa892774384c525f",
    "bba-12-4-350-s0.csv": "e4204b2e41a556979dc75748a48ba327fcf8ebd0c95ed7fb44f0f4c9de59e1e1",
    "rcbba-12-3-200-s2.json": "f96fb620df67f0316663a2b70dec3069ba39ae9806c8394269c61a631495ea93",
    "rcbba-12-3-200-s2.csv": "a5c54012ad075ac41e74f02e6adf8e22d51535063758b17ecc76d4c2e993d07a",
    "rcbba-18-6-1000-s0.json": "e4a1c5bc939c8eb9a13e9e65747698d0f1e52ae95facf30efbda3227ea2c8d29",
    "rcbba-18-6-1000-s0.csv": "62143dd0ab66b43e5f126d62fe7bd80aac9086966957ae32d666f3ac5f673d88",
    "rcbba-8-4-40-s3.json": "8c0cab9172c229512b0f3a91b763ac38d48b846374e593a85ac27c40e0da6a15",
    "rcbba-8-4-40-s3.csv": "0c43e184e1d845ca2b554d6c735abe6900456c629f820050d2cc486438e8dc28",
    "maximal-5-2.json": "a22d0bdcead6e9de1b2bc9171295edbd602c344526c08ad2cfb6c26541d88e38",
    "maximal-5-2.csv": "bd68999afb1063ad9b9d4efdf0a94f89ac3d52af568ffd51c9f2967dd45795ac",
    "maximal-6-4.json": "742aab227b98e40e8a34ac6a928ba834e667dcf397dd327d6019304dce03c3a7",
    "maximal-6-4.csv": "89f1d2d6e3ba5d6b6ad4579fa5fb075db07be6341b4a8bed09d53cdce2bb1c24",
    "maximal-7-4.json": "8d216f6e5f22e7071e8c3d1124d4dfafe5b5e87cbf9824cf79a4459b63006209",
    "maximal-7-4.csv": "39b785a548c667cc97568ceec8c01ad6e2f587dc4395625ff22681b0fc586138",
    "maximal-9-2.json": "cec69367fe9a22702d5e2c67fefbf43de4a5724e07e6d10c06748bc04da7937a",
    "maximal-9-2.csv": "a7406ad26d354d7c2917b2fdc1268ce565525ba7e6d69cc7bfd5a8eaad881bee",
    "maximal-8-3.json": "b0960c381c9accdbe1e70432bea2de1e149d88cebf9f271173d5cd7a76804841",
    "maximal-8-3.csv": "43558f4e2605b63e66b28d26dc1038d8584bde00161c51329410263d3b5a7867",
    "simulate-fn-exhaustive": "194e41ea85f2d4b58ded3c512c0708b8057b17cf98904290518dbd1d8baa5064",
    "simulate-fp-exhaustive": "3fb0d8f2d9bf316fb9fd7b595051fe3f9875a455a7e1120dbac85332456ca39a",
    "simulate-fn-sampled": "31e13114aa4c7cf6e364854940249458705dbbefe89fe8c49d0950ed44ab11ad",
    "simulate-fp-sampled": "2c6461b7305beab1319c0b7adff47672f84864e0b7fd3c735791c05263369fac",
    "oracle-max-5-2": "e813e7b1b2841a0a302ba5eecded2a19af210464737f01cdd37d8a1040c113b2",
    "oracle-max-6-3": "f3246e0220e8777d7f43617ca0d85841a1040e278dff33b73e6d7ea8db3ee61f",
    "oracle-max-7-3-limit": "431c3a2363c19373af17593c6c04f2103ed6e1b0518e48bea1058d73b94d1560",
    "oracle-max-6-2-limit": "9843c619041bfb8b35c021f9dbda8587fb7b24044046406d593320bac7e0782e",
    "oracle-balance-5-2-5": "ccf80b509cd35eaec252c873a504f2d0e1a48732330940341adcc4c1ad6dca19",
    "oracle-balance-6-2-9": "0449d2acd989ff2e3629dabd40c301d523914f334367e3e8951be5836d1b34d6",
    "oracle-balance-7-2-18": "c8c61d9d3b7d5011de0acf769116802edd6ad12b64bfc9cfa8724e81efccd221",
    "oracle-balance-6-3-3": "b5c1d02ba1a7df5c4793bfc9836b70e739a53212c4643384875d12af1f5e19d3",
    "near-14-3-350-s5.json": "15945a64575517a51755694bed5bd14d937757151eab0b944f13acca10e29fad",
    "near-14-3-350-s14.json": "ae67e06776534bdb21522525200b89efe29704f28dad02723ca8a72b8b05952f",
    "stdout-bba-8-3-30-s4": "a5df9beb22a2d9f650561c6c7921d27a30c5f02c33256faa0e2afd6ee5f5a2cc",
    "stdout-rcbba-12-3-200-s2": "f96fb620df67f0316663a2b70dec3069ba39ae9806c8394269c61a631495ea93",
    "stdout-maximal-8-3": "b0960c381c9accdbe1e70432bea2de1e149d88cebf9f271173d5cd7a76804841",
    "validate-rcbba-18-6-1000-s0.csv": "8236fcf17b195b983a5adfd20547ea10ee1294d438e7e7502ece6f0c715dbafa",
    "validate-maximal-8-3.csv": "77c0de88f51a96a0df6454cfde7ee0e8152b1abbda6a856ecf5fd38b9dcb9353",
    "validate-loose.csv": "5d68ccac2e6409e53fc3c2af8bb11a2d12776a755bdf2d7e1cf8b8fc32582440",
}

# The near-bound runs that end in exit 2: every (14, 4, 950) seed, and all
# (14, 3, 350) seeds but 5 and 14.
NEAR_BOUND_EXIT_2 = tuple(
    f"near-{m}-{r}-{n}-s{seed}"
    for (m, r, n), seed in NEAR_BOUND_RUNS
    if (m, r, n, seed) not in {(14, 3, 350, 5), (14, 3, 350, 14)}
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _construct_argv(alg, m, r, n, seed, extra):
    argv = ["construct", "--alg", alg, "--m", str(m), "--r", str(r), "--seed", str(seed)]
    if n is not None:
        argv += ["--n", str(n)]
    return argv + list(extra)


def collect(tmp_path, capsys) -> tuple[dict, tuple]:
    digests = {}
    for name, (alg, m, r, n, seed, extra) in CONSTRUCT_CASES.items():
        for fmt in ("json", "csv"):
            path = tmp_path / f"{name}.{fmt}"
            assert main(_construct_argv(alg, m, r, n, seed, extra) + ["--out", str(path)]) == 0
            digests[f"{name}.{fmt}"] = _sha(path.read_bytes())
    capsys.readouterr()
    code = tmp_path / "rcbba-12-3-200-s2.json"
    for name, argv in SIMULATE_CASES.items():
        assert main(["simulate", "--code", str(code), *argv]) == 0
        digests[name] = _sha(capsys.readouterr().out.encode())
    for name, argv in ORACLE_CASES.items():
        assert main(["oracle", *argv]) == 0
        digests[name] = _sha(capsys.readouterr().out.encode())
    failing = []
    for (m, r, n), seed in NEAR_BOUND_RUNS:
        name = f"near-{m}-{r}-{n}-s{seed}"
        path = tmp_path / f"{name}.json"
        argv = _construct_argv("rcbba", m, r, n, seed, ("--budget", "20000"))
        rc = main(argv + ["--out", str(path)])
        err = capsys.readouterr().err
        if rc == 2:
            assert "(budget-exhausted)" in err
            failing.append(name)
        else:
            assert rc == 0
            digests[f"{name}.json"] = _sha(path.read_bytes())
    for name, (alg, m, r, n, seed, extra) in STDOUT_CASES.items():
        assert main(_construct_argv(alg, m, r, n, seed, extra)) == 0
        digests[name] = _sha(capsys.readouterr().out.encode())
    for name in ("rcbba-18-6-1000-s0", "maximal-8-3"):
        assert main(["validate", str(tmp_path / f"{name}.csv")]) == 0
        digests[f"validate-{name}.csv"] = _sha(capsys.readouterr().out.encode())
    loose = tmp_path / "loose.csv"
    loose.write_bytes(LOOSE_CSV.encode())
    assert main(["validate", str(loose)]) == 1
    digests["validate-loose.csv"] = _sha(capsys.readouterr().out.encode())
    return digests, tuple(failing)


def test_cli_output_matches_golden_digests(tmp_path, capsys):
    digests, failing = collect(tmp_path, capsys)
    assert failing == NEAR_BOUND_EXIT_2
    assert digests == GOLDEN
