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

# Near-bound rcbba runs at budget 20000: a few seeds end in exit 2.
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
    "rcbba-12-3-200-s2.json": "0de2078316629dfff7189a73013cc9ea5bfbb7033c27dbf6af78b5caabdf1725",
    "rcbba-12-3-200-s2.csv": "ac756b76b111f1c3a7aff159695feaf052fee3f87b40e8f035ef1a03cd158e36",
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
    "simulate-fn-exhaustive": "ce1092ff14395c0e8acc13fd113755cde96407d8f80a19a9b08b8b027859f885",
    "simulate-fp-exhaustive": "6c7c53fb9ca1303b355a9d560888c06ceb80082486d2ef409a9a39367f02a0fd",
    "simulate-fn-sampled": "559d3cc73e8353610c00a811d25d541a52af207eba0cccfae8c1f8b58c6977cd",
    "simulate-fp-sampled": "382d17f33288fb24c6f8e0ddee8337c76369ce3bea47bfac43b0ea0654399ae2",
    "oracle-max-5-2": "e813e7b1b2841a0a302ba5eecded2a19af210464737f01cdd37d8a1040c113b2",
    "oracle-max-6-3": "f3246e0220e8777d7f43617ca0d85841a1040e278dff33b73e6d7ea8db3ee61f",
    "oracle-max-7-3-limit": "431c3a2363c19373af17593c6c04f2103ed6e1b0518e48bea1058d73b94d1560",
    "oracle-max-6-2-limit": "9843c619041bfb8b35c021f9dbda8587fb7b24044046406d593320bac7e0782e",
    "oracle-balance-5-2-5": "ccf80b509cd35eaec252c873a504f2d0e1a48732330940341adcc4c1ad6dca19",
    "oracle-balance-6-2-9": "0449d2acd989ff2e3629dabd40c301d523914f334367e3e8951be5836d1b34d6",
    "oracle-balance-7-2-18": "c8c61d9d3b7d5011de0acf769116802edd6ad12b64bfc9cfa8724e81efccd221",
    "oracle-balance-6-3-3": "b5c1d02ba1a7df5c4793bfc9836b70e739a53212c4643384875d12af1f5e19d3",
    "near-14-4-950-s0.json": "9c025fed65bb5c35577d160b15f3e1edaa4eb4ef6462c9800bcc40f102d84aab",
    "near-14-4-950-s1.json": "f703de2f5057f595e3eda2d8754bcf91db86462daa9bc247f353c89024bad2e2",
    "near-14-4-950-s2.json": "ee70363c1219cb0a74760f259345fab9a9e551ddfc6d1b93e7335e3a5a82b7fc",
    "near-14-4-950-s4.json": "68ab2c1fdfbcb4a8c8076c5a147f8ddad32d207ca2a28f52fe65e9614ccd25c5",
    "near-14-4-950-s5.json": "58076ed1d831ac08e904526eabbc72d1dcd9d407afed96e97b6433ef25bb0e38",
    "near-14-4-950-s6.json": "03ff5f516bc476f49b985a63a918b9bcc8331fa396bf0b558abd11866b285c15",
    "near-14-4-950-s7.json": "5e31a483a381690a6848a366355197340e8a6cdb02e9accb583b940d33a2ae57",
    "near-14-4-950-s8.json": "6cc0e963970c68d69f4eccc5be9460f3cfa1f4833ee6cdccedbc90efa71cd0d1",
    "near-14-4-950-s9.json": "3ddf114efac4cfa7e215fb27e14bad4521837ae09c82599e2bebaefb599c6b8d",
    "near-14-3-350-s0.json": "3d46d2575937e8d6a7ab7451fc71bb1218525e20b3be7e8359f22f29b8e7c417",
    "near-14-3-350-s1.json": "2f923fa8527aac51e7d30cb30936c262ee68cfa3c2667f303e4008e69d85c74c",
    "near-14-3-350-s2.json": "9844182721c5878dc5a839de98d110a2fb9bfe1c24d12b597af77e2a6a541299",
    "near-14-3-350-s3.json": "fe1fac7ddc6756ca9c6c0104727bc14e7fd768f688a6d41d8cb368877cdec249",
    "near-14-3-350-s4.json": "17925b51d10922dc6a31e745bf5bd0d6caf7bde6fb657c29331732b2fc78b86b",
    "near-14-3-350-s5.json": "862dbc264dc2c6db63d8dabb86d1821c6e5ac82e17af32c09db4ce00ac7a4514",
    "near-14-3-350-s6.json": "851a7da9476846da9225b94491974d1e799405a3d53e151dc81d978bdff5d5f5",
    "near-14-3-350-s7.json": "5cdcdc8d76e34ab94bc5a8abf1441bb753dbf2e9e07978026ad0337933ce718f",
    "near-14-3-350-s9.json": "0f5c2da4a35030f0268c7014b56a64b62cb4512b04f5b684b344bc087e177407",
    "near-14-3-350-s11.json": "783f4ba13e4fbd16ca1f600a00a78f22238736520e26d139ecb8775549c24e93",
    "near-14-3-350-s12.json": "6c00a46a058e82acce8516d42f1161d295225c5bb6a7e160894991bdc0ec70fa",
    "near-14-3-350-s13.json": "258f76ed3c7fb03b0b14905903d7b8259d28d0c5e8eb95343dc14e9ccb7a1f6b",
    "near-14-3-350-s15.json": "a3a6748f25d5ea2460c87dd5e3719d806fd5d913d29c6b68fb198509e498b668",
    "stdout-bba-8-3-30-s4": "a5df9beb22a2d9f650561c6c7921d27a30c5f02c33256faa0e2afd6ee5f5a2cc",
    "stdout-rcbba-12-3-200-s2": "0de2078316629dfff7189a73013cc9ea5bfbb7033c27dbf6af78b5caabdf1725",
    "stdout-maximal-8-3": "b0960c381c9accdbe1e70432bea2de1e149d88cebf9f271173d5cd7a76804841",
    "validate-rcbba-18-6-1000-s0.csv": "8236fcf17b195b983a5adfd20547ea10ee1294d438e7e7502ece6f0c715dbafa",
    "validate-maximal-8-3.csv": "77c0de88f51a96a0df6454cfde7ee0e8152b1abbda6a856ecf5fd38b9dcb9353",
    "validate-loose.csv": "5d68ccac2e6409e53fc3c2af8bb11a2d12776a755bdf2d7e1cf8b8fc32582440",
}

# The near-bound runs that end in exit 2.
NEAR_BOUND_EXIT_2 = (
    "near-14-4-950-s3",
    "near-14-3-350-s8",
    "near-14-3-350-s10",
    "near-14-3-350-s14",
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
