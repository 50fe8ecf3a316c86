"""The identical-bytes gate: a fixed CLI pipeline, run in process through
cli.run in an empty directory with relative paths, must write files whose
sha256 equal the committed table, manifests included.

The pipeline covers `scan generate` (jsonl and tsv) and `scan interpret`,
every `split` kind and `dbca analyze` of each, both `prep cgps-prefix`
modes, `eval score` (every variance kind, with and without --clause-set),
`eval length-breakdown` on both axes, `eval report`, `eval curve`, and
`ir encode`/`ir decode` at f1/f2/f3.  Its SPARQL queries and predictions
are written here, so that nothing outside this file can move the table.
A change that alters an output on purpose updates GOLDEN and names each
changed file.  The two MCD split pins below are checked by tests/test_dbca.py
and, with the table, by this file's standalone run."""

import hashlib
import json
import random
from pathlib import Path

from compgen import dbca, scan
from compgen.cli import run

# Two MCD splits of one seeded 400-example sample of the SCAN set, pinned as
# the sha256 of the JSON text of [train_ids, test_ids].  MCD_SAMPLE_SHA256 is
# the split at the default atom bound, as computed before the search state
# became integer.  MCD_REPAIR_SHA256 is the split at bound 0.001, which the
# random start exceeds, so that the search runs the repair phase first, as
# computed before the compound side was scored first outside repair.
MCD_SAMPLE_SHA256 = "3d7d4702a4904866efd40a334bffd205cced10bbea836d4b54d0b18a7804a353"
MCD_REPAIR_SHA256 = "c835445631c75b395cbc67e7f98ed7f86d734e29a13ed8ba19a69c4067c0db8b"

SPLITS = {  # name -> options of `split <kind>`
    "random": ["random", "--in", "scan.jsonl", "--seed", "3"],
    "primitive": ["primitive", "--in", "scan.jsonl", "--primitive", "jump"],
    "subcommand": ["subcommand", "--in", "scan.jsonl", "--phrase", "walk twice"],
    "template": ["template", "--in", "scan.jsonl", "--template", "$Primitive around right"],
    "length": ["length", "--in", "scan.jsonl"],
    "length_tsv": ["length", "--in", "scan.tsv"],
    "mcd": ["mcd", "--in", "scan.jsonl", "--seed", "1", "--iterations", "2000",
            "--target", "0.05"],
}

SUBJECTS = ("?x0", "?x1", "M0", "M1", "M2")
RELATIONS = ("a", "ns:film.film.directed_by", "ns:film.actor.film",
             "ns:people.person.gender", "ns:film.film.edited_by")
OBJECTS = ("?x0", "?x1", "M1", "M2", "M3", "ns:film.film", "m_05zppz")
HEADERS = ("SELECT DISTINCT ?x0 WHERE", "SELECT count(*) WHERE", "ASK WHERE", "")


def _cli(*argv):
    assert run(list(argv)) == 0, argv


def _write_jsonl(path, rows):
    Path(path).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _sides(split):
    """The dataset lines of scan.jsonl on each side of split_<split>.json."""
    ids = json.loads(Path(f"split_{split}.json").read_text())
    rows = [json.loads(line) for line in Path("scan.jsonl").read_text().splitlines()]
    return ([r for r in rows if r["id"] in side] for side in
            (set(ids["train"]), set(ids["test"])))


def _query(header, triples, filters=()):
    body = " . ".join([" ".join(t) for t in triples] + list(filters))
    return f"{header} {{ {body} }}" if header else body


def _cfq_queries(n=120):
    """(id, header, triples, filters) of n seeded queries in all four forms;
    one repeats a triple, and every fifth has a FILTER."""
    rng = random.Random(16)
    queries = []
    for k in range(n):
        triples = list(dict.fromkeys(
            (rng.choice(SUBJECTS), rng.choice(RELATIONS), rng.choice(OBJECTS))
            for _ in range(rng.randint(1, 5))))
        if k == 7:
            triples.append(triples[0])
        filters = ["FILTER ( ?x0 != M1 )"] if k % 5 == 0 else []
        queries.append((f"q{k}", HEADERS[k % 4], triples, filters))
    return queries


def _pipeline():
    _cli("scan", "generate", "--out", "scan.jsonl")
    _cli("scan", "generate", "--out", "scan.tsv")
    Path("commands.txt").write_text(
        "jump\nturn left twice and walk\n\nlook around right after run opposite left\n")
    _cli("scan", "interpret", "--in", "commands.txt", "--out", "actions.txt")
    for name, options in SPLITS.items():
        _cli("split", *options, "--out", f"split_{name}.json")
        _cli("dbca", "analyze", "--in", "scan.jsonl", "--split", f"split_{name}.json",
             "--out", f"dbca_{name}.json")

    train, test = _sides("length")
    _write_jsonl("length_train.jsonl", train)
    _write_jsonl("length_test.jsonl", test)
    _cli("prep", "cgps-prefix", "--in", "length_test.jsonl", "--token-map", "scan",
         "--out", "length_test_prefixed.jsonl")
    scan_preds = []
    for r in range(3):
        for k, row in enumerate(test):
            if r == 2 and k % 50 == 3:
                continue  # a missing prediction is wrong
            tokens = row["output"] if (7 * k + r) % 4 else row["output"][:-1] or ["JUMP"]
            scan_preds.append({"id": row["id"], "replica": r,
                               "prediction": tokens if r == 0 else " ".join(tokens)})
    _write_jsonl("scan_pred.jsonl", scan_preds)
    _write_jsonl("scan_pred_replica0.jsonl", [p for p in scan_preds if p["replica"] == 0])
    for variance in ("stdev", "ci95_bootstrap"):
        _cli("eval", "score", "--gold", "length_test.jsonl", "--pred", "scan_pred.jsonl",
             "--variance", variance, "--split-name", "length",
             "--out", f"score_scan_{variance}.json")
    for axis in ("output", "input"):
        _cli("eval", "length-breakdown", "--gold", "length_test.jsonl", "--pred",
             "scan_pred_replica0.jsonl", "--train", "length_train.jsonl", "--axis", axis,
             "--bucket-width", "4", "--out", f"breakdown_{axis}.csv")

    queries = _cfq_queries()
    gold, cfq_preds = [], []
    for k, (qid, header, triples, filters) in enumerate(queries):
        entities = sorted({t for triple in triples for t in triple if t.startswith("M")})
        gold.append({"id": qid, "input": " ".join(["what", *entities, "?"]),
                     "output": _query(header, triples, filters)})
        for r in range(2):
            variant = (k + r) % 4
            if variant == 0:  # the gold itself
                text = _query(header, triples, filters)
            elif variant == 1:  # the same clause set in another order
                text = _query(header, triples[::-1], filters)
            elif variant == 2:  # one wrong object
                text = _query(header, triples[:-1] + [triples[-1][:2] + ("M9",)], filters)
            else:  # braces dropped: no parse, except a bare query, which has none
                text = _query(header, triples, filters).replace("}", "")
            cfq_preds.append({"id": qid, "replica": r, "prediction": text})
    _write_jsonl("cfq.jsonl", gold)
    _write_jsonl("cfq_pred.jsonl", cfq_preds)
    _cli("prep", "cgps-prefix", "--in", "cfq.jsonl", "--identity", "--global-length",
         "--out", "cfq_prefixed.jsonl")
    _cli("eval", "score", "--gold", "cfq.jsonl", "--pred", "cfq_pred.jsonl",
         "--split-name", "cfq", "--out", "score_cfq.json")
    _cli("eval", "score", "--gold", "cfq.jsonl", "--pred", "cfq_pred.jsonl", "--clause-set",
         "--variance", "ci95", "--split-name", "cfq", "--out", "score_cfq_clause_set.json")

    cells = {"seq2seq": {"length": json.loads(Path("score_scan_stdev.json").read_text()),
                         "cfq": json.loads(Path("score_cfq.json").read_text())},
             "ir": {"length": json.loads(Path("score_scan_ci95_bootstrap.json").read_text()),
                    "cfq": json.loads(Path("score_cfq_clause_set.json").read_text()),
                    "mcd": None}}
    Path("results.json").write_text(json.dumps(cells))
    _cli("eval", "report", "--in", "results.json", "--out", "results.md")
    points = [{"divergence": json.loads(Path(f"dbca_{name}.json").read_text())[
        "compound_divergence"], "accuracy": 0.5, "label": name} for name in SPLITS]
    Path("points.json").write_text(json.dumps(points))
    _cli("eval", "curve", "--in", "points.json", "--out", "curve.csv")

    Path("queries.txt").write_text("".join(_query(*q[1:]) + "\n" for q in queries))
    for level in ("f1", "f2", "f3"):
        _cli("ir", "encode", "--level", level, "--in", "queries.txt", "--out", f"{level}.txt")
        _cli("ir", "decode", "--level", level, "--in", f"{level}.txt",
             "--out", f"{level}_decoded.txt")


def mcd_pins(dataset):
    """The sha256 of each pinned MCD split of dataset, the SCAN set, by the
    name of its pin."""
    sample = random.Random(3).sample(dataset, 400)
    hashes = {}
    for name, bound in (("MCD_SAMPLE_SHA256", 0.02), ("MCD_REPAIR_SHA256", 0.001)):
        result, _ = dbca.build_mcd_split(sample, seed=5, iterations=300, max_proposals=5000,
                                         max_atom_divergence=bound)
        text = json.dumps([list(result.train_ids), list(result.test_ids)])
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def _changed(directory):
    """The names of the files of the golden table, and of the files in
    directory, whose hashes differ: missing and extra files included."""
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(Path(directory).iterdir())}
    return sorted(name for name in hashes.keys() | GOLDEN.keys()
                  if hashes.get(name) != GOLDEN.get(name))


def test_pipeline_outputs_match_the_golden_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _pipeline()
    changed = _changed(tmp_path)
    assert not changed, f"files that differ from the golden table: {changed}"


GOLDEN = {
    "actions.txt": "93bc3eb170a4d9bb3149b9b9c4c9955684da8957e8333f8ee9f91aab9e58e1e8",
    "actions.txt.manifest.json": "e259bd3225bf6b798901b69175a0d03652ee117af47c05ddadfe21f76fd1ca06",
    "breakdown_input.csv": "7bc9ee2626dd6403d3e1a1c1640d7fc03e896d3c4ec397b2a08b32f82959994d",
    "breakdown_input.csv.manifest.json": "c3549a51e8fbe9cf140c39406708b6f0dfdd41118375291bc813db5e7a2b7a92",
    "breakdown_output.csv": "1ed6409ea7716f1f5904923a5f862f5bd2ce80f3e3e50efd7dd0397b0815f80d",
    "breakdown_output.csv.manifest.json": "baee90b1b90e91bd417d25bad7241be00c6545e3f60a69d4ceb7e4db8eb09492",
    "cfq.jsonl": "1d07d88a6fdf4c0f36a09686b56b8e89bc55642ce99ea0816980c84606308b78",
    "cfq_pred.jsonl": "8b6a66e08afc85be24c6e91607e42152cc5f9a7847efaa089d25f01552f49aa2",
    "cfq_prefixed.jsonl": "edcde4d2504e83ea539733e66e3460adbbd012e8037436125bc84aa84bc97897",
    "cfq_prefixed.jsonl.manifest.json": "6e7b64a941949838ed3d411800c79548cc624b239c9e311fa41f98615002279d",
    "commands.txt": "d349de6ead92730fd52d1844d7c54bccc083acdcffa37662f121bd3b443e6773",
    "curve.csv": "717178ac717cfeb9d20c2fb14efd1f5a0f0b1991004d41621a009c3963b72b04",
    "curve.csv.manifest.json": "4f77eb64a9008370606084925f7c7ba2ad26f5f7ddb566e6ef5fc0fbe3b4e68a",
    "dbca_length.json": "9876ac6ad80f3110c8725e05435bcd599f702ee1047f3d987acde5b6b5df8eb2",
    "dbca_length.json.manifest.json": "d6e0d870e05175c76b8bf15872a595e75e196715d0e32f8419c87f5b02216e18",
    "dbca_length_tsv.json": "9876ac6ad80f3110c8725e05435bcd599f702ee1047f3d987acde5b6b5df8eb2",
    "dbca_length_tsv.json.manifest.json": "11b8eb1d0b0c25dd2ff9c68cab801d72fa2aac2eacc4631b7a5c1feba81a21b8",
    "dbca_mcd.json": "018520068d660248fa21e57ea3b920a6eaf315cd063c3947b2928d3bcb4ff3bd",
    "dbca_mcd.json.manifest.json": "19909b8a27dc86f32cd64fd67c0caa753115583cf0da06d53dee83f1b62dd798",
    "dbca_primitive.json": "b5abc6fc2702d1a6f89480cbe8f1f90d3b6a3d97b8694b6cf6bf5976d7e2fac3",
    "dbca_primitive.json.manifest.json": "19b312f90c91c29d2d0690ef3bdc7fd7bfa23a2220ff43462a0339ce5aeb4782",
    "dbca_random.json": "a47aad0fd7c7118530b5090cb0c803b7c223374da8e64ab6b045162ccaafb413",
    "dbca_random.json.manifest.json": "2b4763c9be8ccab7b18d6eac548e8305c80172880596ae2a57ca61d0e6609462",
    "dbca_subcommand.json": "9ce40121b499c485af1d9298d8bd654ac64fb77cc565c3bfb88ae534211a86d2",
    "dbca_subcommand.json.manifest.json": "41c30eacb3bf0b98a392c2cc49d89a27c5843acf2979979acb9ba8e16dbefd3a",
    "dbca_template.json": "ff9a859d3d124eacf11660c46da3e03878e5cd04bf9de5ed63a2fb776a6e9b08",
    "dbca_template.json.manifest.json": "3e152b1bc9be46bd48b201b115b487a16cda836adc66105dbb49dff654888e9d",
    "f1.txt": "99bfe0cb1b8155671d7244efcee37ff4a462bb0e3121adfa60913d4fb84008c5",
    "f1.txt.manifest.json": "abff9e81bb21c66bdc5a186d4297ae35abedaa0728f20b14e935240183399bcc",
    "f1_decoded.txt": "9fabbd11d31bc8917a1777d2252eb717858897731075b6807e61662f6fcc8559",
    "f1_decoded.txt.manifest.json": "14455ce2537138a8052e6ae65af5dc98cc523742e12664febbff0b560987c54a",
    "f2.txt": "6282a247e43906470024360b63823a4e83e587c5165f52d76fe675a03a574574",
    "f2.txt.manifest.json": "02f6998d4474337c61136bcbf1f54977adbbfcc9ab3534997385b4bf5cb32694",
    "f2_decoded.txt": "9fabbd11d31bc8917a1777d2252eb717858897731075b6807e61662f6fcc8559",
    "f2_decoded.txt.manifest.json": "36054d611a1d062f50094340eff40a7161d4e035af25a4ffb5c7ba8be34ea03b",
    "f3.txt": "ffcdebc934d91e48b40d808177df7abd6ca642b3b038c9c779424421c533ad58",
    "f3.txt.manifest.json": "f6af50880cf0838b98d5437d9f33d3d29b3fc423e563c78647a0dae36e19f5e5",
    "f3_decoded.txt": "60c6d721fd16d11d97f60a26a95afd6e261d9a54c13003de5be4c01686c70511",
    "f3_decoded.txt.manifest.json": "2d0923d4bde3b7d4391f99e98bc046cf3e76fe31b837badeea59cba7818c712a",
    "length_test.jsonl": "5bc09a28da564406eb692f33407df529784e4eb6c1358fbf364723a85d40a281",
    "length_test_prefixed.jsonl": "5bc09a28da564406eb692f33407df529784e4eb6c1358fbf364723a85d40a281",
    "length_test_prefixed.jsonl.manifest.json": "6036b1118c2ad33ff0144b65709146cd756b1c372f5aff6cfeb7424f7d425c78",
    "length_train.jsonl": "b1f21107236d81473549ad5d7be7ac11d0f9d3716a404f6156918b458c39a02d",
    "points.json": "201c3d869ca456d7131dbb8dff3d453ee36d75e79f7a312ad7e2f1b58c8b77ce",
    "queries.txt": "0f2c81b5d1d3e290818d904b0ec443b33777d1bf67338c8424236f251c70bf4d",
    "results.json": "37541b82aa4fb10f7c4eeb7bc876f88e1ef1c22fef660f0a699111cb49f15824",
    "results.md": "73809c79595373a6b65866301765b9c69f79d0e5a7c1d98440a201dad9e71570",
    "results.md.manifest.json": "1b62f0f466fb08a1d0fd16dab488d0ae3cecf8e08bbd61d546ebb5042987f929",
    "scan.jsonl": "949e0b44926d280d8c32fab60647d2e3408caedc8f77ae52f01e1d84726d6def",
    "scan.jsonl.manifest.json": "3881309a9ae02f37dac3a053cff1ae3587fdeffc3a4b1af3fba1810c6ce0f7a7",
    "scan.tsv": "af1656ebee2655b9f12068337f4124420481564e39995be5612aef6a1ff386ee",
    "scan.tsv.manifest.json": "e9d75923e1914bb137b21ad6be09bbef3d61bc309d2d0598fe08464aeb4f871f",
    "scan_pred.jsonl": "d4c47d5d6806f34b6e74e1c2e3f68dc6e5226f920f7fb3e66aa7b60e37571526",
    "scan_pred_replica0.jsonl": "54eaf08e35c922f914f351b2b50dc65088c430ecf627a4ebdd56c760ef9a96ff",
    "score_cfq.json": "54f0f2df3c2e45a8d2e38b09216768e01bb56d0685449315d4d77b49795ba6e4",
    "score_cfq.json.manifest.json": "0b4dd7700b2a80f5b50fbbdc6db3d9d906d9c13ce14449c6384a18894de3b365",
    "score_cfq_clause_set.json": "ffd3eaabae2f2d128083460de06b82941448cd7c9dd8b912b8f5e8de9da96015",
    "score_cfq_clause_set.json.manifest.json": "e4b301d6f756284f52f105a0a449154e0826c44bc15b15091b382d6c6379e612",
    "score_scan_ci95_bootstrap.json": "de303b28d4afb53feef3af1dd0b64898cf7df2bbcc795ce4117c2062557a6438",
    "score_scan_ci95_bootstrap.json.manifest.json": "c2b182188d718cdf0daec1719b9acb30a570003bb468c51b66a6c80fe86282f9",
    "score_scan_stdev.json": "fae70b32d68b7cd630816e73b060f7dc7864101d87ec6887c7c6e47d4c182580",
    "score_scan_stdev.json.manifest.json": "ef549b657cdae8db35ea3807477f7a4f5916e16fca55cd1a4337c7d65ce26f5b",
    "split_length.json": "a1582be42e039adbab05be305cc08f4dec1efcd7dc87ae8f2095c7a411779ea8",
    "split_length.json.manifest.json": "501e7a47e7196fcc8fa28ccd7a47c66b20e4d92a98092437a37080afb3d47715",
    "split_length_tsv.json": "a1582be42e039adbab05be305cc08f4dec1efcd7dc87ae8f2095c7a411779ea8",
    "split_length_tsv.json.manifest.json": "8a16a3022c119241429bdeeacd025dc87ae9b75fe4217536eb92dd862a020187",
    "split_mcd.json": "2fab1fc0dde1444a09d6361006fdd3caa7287da4d2e4b5361d73ef39b6bc0954",
    "split_mcd.json.manifest.json": "844a741c51e9350cf60fc73b7a9fadaf03dc708cd632ccb6c0d50cb983db1baa",
    "split_primitive.json": "b9e4137071a5f3455e1e88cd2dc2a8ea3e3b0aba47f019cf3c79202d5e16d3cb",
    "split_primitive.json.manifest.json": "f2396d97e2f60b6b591c8a2823fbb4b6f6b13227a1628b3a2325732db3d3d2bc",
    "split_random.json": "d8ad45a3aebde3305aac1794853488fdd7a50989ff0ce5d3935997e473896e52",
    "split_random.json.manifest.json": "35b3341eeff3aac4b08b7c3bdb32f3e053d9a3d143ca0cffa52697b895657d7b",
    "split_subcommand.json": "15f5f4176e76d61f7d01d583fd7115f9b000ec94310fb748f37789bc0890d200",
    "split_subcommand.json.manifest.json": "7a4c3d37bc99040080538c92ed664ec26fe885aaaad6263e169c0f4ee6651884",
    "split_template.json": "d66d7aa3e5c0fe540b132fa83abff8a35253c43fbd060fab4bc1ca176894bed2",
    "split_template.json.manifest.json": "7e5f9659bb5948f8e730f2dc5cb3b7b87e9d2af33b91b378290681a8e70b82fb",
}


if __name__ == "__main__":
    # The gate without pytest, for any interpreter: run from the repository
    # root as `PYTHONPATH=src python tests/test_golden.py`; it prints each
    # file or MCD pin whose hash differs and exits 1 if there is one.
    import os
    import sys
    import tempfile

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            _pipeline()
            changed = _changed(work)
        finally:
            os.chdir(home)
    pins = {"MCD_SAMPLE_SHA256": MCD_SAMPLE_SHA256, "MCD_REPAIR_SHA256": MCD_REPAIR_SHA256}
    moved = [name for name, digest in mcd_pins(scan.enumerate_dataset()).items()
             if digest != pins[name]]
    for name in changed + moved:
        print(f"differs: {name}")
    print(f"python {sys.version.split()[0]}: {len(changed)} files differ "
          f"from the golden table of {len(GOLDEN)}, {len(moved)} of the {len(pins)} MCD pins")
    sys.exit(1 if changed or moved else 0)
