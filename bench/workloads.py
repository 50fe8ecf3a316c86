"""The three workloads.  Each is a closed loop with one caller: an operation
starts when the previous one has finished and been checked.

A workload object is built with its work directory, the workload seed and a
tracer.  ``setup()`` makes the inputs.  ``op(i, repeats)`` runs operation i,
with its scoring phase ``repeats`` times over, and returns the seconds of
each stage of the prepare phase ({stage: s}), of each scoring pass
([{stage: s}]) and the outputs.  ``aggregate(prepares, scores)`` turns the
stage times of a run into (prepare_s, score_s).  ``check(i, out)`` lists
(name, problems) per checked output.  ``layers(traced, setup_summary)``
turns the traced operations, as (span summary, counters, output) triples,
and the span summary of the traced set-up into per-layer metrics.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import checks
import gen

SCAN_REPLICAS = 5
BUCKET_WIDTH = 5
SPLIT_ARGS = {
    "random": ["--train-fraction", "0.8"],  # --seed is the workload seed
    "primitive": ["--primitive", gen.HOLDOUT_PRIMITIVE],
    "template": ["--template", gen.HOLDOUT_TEMPLATE],
    "length": ["--max-length", str(gen.LENGTH_THRESHOLD)],
}
SPLIT_FUNCTIONS = {"random": "build_random_split", "primitive": "build_primitive_holdout",
                   "template": "build_template_holdout", "length": "build_length_split"}
# The built-in `--token-map scan`, restated so that the expected prefixes do
# not come from the program under test.
SCAN_TOKEN_MAP = {"jump": ("JUMP",), "walk": ("WALK",), "run": ("RUN",), "look": ("LOOK",),
                  "left": ("LTURN",), "right": ("RTURN",), "turn": ("LTURN", "RTURN")}

MCD_TARGET = 0.06
MCD_ATOM_BOUND = 0.02
MCD_TOLERANCE = 0.001
MCD_PATIENCE = 3000
MCD_PROPOSAL_CAP = 400_000
MCD_TRAIN_FRACTION = 0.8

CFQ_QUERIES = 20_000


def _write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _total(summary: dict, name: str, root=None) -> float:
    table = summary["all"] if root is None else summary["by_root"].get(root, {})
    return table.get(name, (0, 0.0, 0.0))[1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def stage_medians(samples: list) -> float:
    """Sum over stages of the median time of each stage, for repeated
    identical work.  Per stage rather than per operation, so that a stall
    in one stage of one pass moves only that stage's median."""
    by_stage: dict = {}
    for sample in samples:
        for stage, seconds in sample.items():
            by_stage.setdefault(stage, []).append(seconds)
    return sum(statistics.median(times) for times in by_stage.values())


def _medians(prepares, scores) -> tuple:
    return stage_medians(prepares), stage_medians(scores)


class ScanSuite:
    """The whole CLI pipeline on the 20,910-command set, through
    compgen.cli.run.  Never runs the MCD search or SPARQL."""

    aggregate = staticmethod(_medians)
    # Scoring takes under half a second: repeat it for more samples.
    SCORE_REPEATS = 6

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.seed, self.tracer = work, seed, tracer

    def setup(self) -> None:
        from compgen import cli

        self.cli = cli
        w = self.work
        examples = gen.scan_oracle()
        self.n_commands = len(examples)
        (w / "commands.txt").write_text(
            "".join(" ".join(ex.input) + "\n" for ex in examples), encoding="utf-8")
        self.expected_actions = "".join(" ".join(ex.output) + "\n" for ex in examples)
        self.expected_splits = gen.expected_splits(examples, self.seed)
        by_id = {ex.id: ex for ex in examples}
        train_ids, test_ids = self.expected_splits["length"]
        train = [by_id[i] for i in train_ids]
        test = [by_id[i] for i in test_ids]
        for path, rows in (("length_train.jsonl", train), ("length_test.jsonl", test)):
            _write_jsonl(w / path, ({"id": ex.id, "input": list(ex.input),
                                     "output": list(ex.output)} for ex in rows))
        preds = gen.scan_predictions(test, self.seed, SCAN_REPLICAS)
        _write_jsonl(w / "preds.jsonl", ({"id": i, "prediction": list(p), "replica": r}
                                         for i, p, r, _ in preds))
        _write_jsonl(w / "preds_r0.jsonl", ({"id": i, "prediction": list(p), "replica": r}
                                            for i, p, r, _ in preds if r == 0))
        self.expected_accuracies = [
            sum(ok for _, _, r, ok in preds if r == rep) / len(test)
            for rep in range(SCAN_REPLICAS)]
        r0_correct = {i for i, _, r, ok in preds if r == 0 and ok}
        self.expected_breakdown = _breakdown(test, train, r0_correct, BUCKET_WIDTH)
        self.expected_prefixed = [_cgps_prefix(ex.input, ex.output) for ex in examples]
        self.first_random_divergence = None

    def _commands(self):
        """(stage key, argv) of the prepare phase and of the scoring phase."""
        w = self.work
        ds = str(w / "scan.jsonl")
        prepare = [("scan generate", ["scan", "generate", "--out", ds]),
                   ("scan interpret", ["scan", "interpret", "--in", str(w / "commands.txt"),
                                       "--out", str(w / "actions.txt")])]
        for kind, args in SPLIT_ARGS.items():
            seed = ["--seed", str(self.seed)] if kind == "random" else []
            split = str(w / f"split_{kind}.json")
            prepare.append((f"split {kind}",
                            ["split", kind, "--in", ds, "--out", split] + args + seed))
            prepare.append((f"dbca analyze {kind}",
                            ["dbca", "analyze", "--in", ds, "--split", split,
                             "--out", str(w / f"div_{kind}.json")]))
        prepare.append(("prep cgps-prefix", ["prep", "cgps-prefix", "--in", ds, "--out",
                                             str(w / "prefixed.jsonl"), "--token-map", "scan"]))
        gold = str(w / "length_test.jsonl")
        score = [("eval score", ["eval", "score", "--gold", gold, "--pred",
                                 str(w / "preds.jsonl"), "--out", str(w / "score.json")]),
                 ("eval length-breakdown",
                  ["eval", "length-breakdown", "--gold", gold, "--pred", str(w / "preds_r0.jsonl"),
                   "--train", str(w / "length_train.jsonl"),
                   "--bucket-width", str(BUCKET_WIDTH), "--out", str(w / "breakdown.csv")])]
        return prepare, score

    def _run(self, commands, codes: dict) -> dict:
        times = {}
        for key, argv in commands:
            span = "cli.stage." + "_".join(argv[:2]).replace("-", "_")
            t0 = time.perf_counter()
            with self.tracer.span(span):
                code = self.cli.run(argv)
            times[key] = time.perf_counter() - t0
            if code != 0:
                codes[key] = code
        return times

    def op(self, i: int, repeats: int) -> dict:
        prepare, score = self._commands()
        codes: dict = {}
        return {"prepare": self._run(prepare, codes),
                "score": [self._run(score, codes) for _ in range(repeats)],
                "codes": codes}

    def check(self, i: int, out: dict) -> list:
        w = self.work
        if out["codes"]:
            return [(stage, [f"{stage}: exit code {code}"]) for stage, code in out["codes"].items()]
        results = [("scan generate", checks.check_generated(w / "scan.jsonl")),
                   ("scan interpret", checks.check_text(
                       "scan interpret", w / "actions.txt", self.expected_actions))]
        for kind in SPLIT_ARGS:
            train, test = self.expected_splits[kind]
            results.append((f"split {kind}", checks.check_split(
                kind, w / f"split_{kind}.json", train, test)))
            if kind == "random":
                path = w / "div_random.json"
                expected = self.first_random_divergence
                if expected is None:
                    obj = json.loads(path.read_text(encoding="utf-8"))
                    self.first_random_divergence = (obj["atom_divergence"],
                                                    obj["compound_divergence"])
            else:
                expected = checks.PINNED_DIVERGENCE[kind]
            results.append((f"dbca analyze {kind}", checks.check_divergence(
                kind, w / f"div_{kind}.json", len(train), len(test), expected)))
        results += [
            ("prep cgps-prefix", checks.check_prefixed(w / "prefixed.jsonl",
                                                       self.expected_prefixed)),
            ("eval score", checks.check_score(w / "score.json", self.expected_accuracies)),
            ("eval length-breakdown", checks.check_breakdown(w / "breakdown.csv",
                                                             self.expected_breakdown)),
        ]
        return results

    def layers(self, traced: list, setup_summary) -> dict:
        def med(fn):
            return _median([fn(s) for s, _, _ in traced])

        def interpret_rate(s):
            root = "cli.stage.scan_interpret"
            t = _total(s, "scan.parse_command", root) + _total(s, "scan.interpret", root)
            return self.n_commands / t if t else 0.0

        out = {
            "scan.enumerate_s": med(lambda s: _total(s, "scan.enumerate_dataset")),
            "scan.interpret_cmds_per_s": med(interpret_rate),
            "data.save_dataset_s": med(lambda s: _total(s, "data.save_dataset")),
            "data.cgps_prefix_s": med(lambda s: _total(s, "data.cgps_prefix_dataset")),
            "evaluation.score_exact_s": med(lambda s: _total(s, "evaluation.score_replicas")),
            "evaluation.length_breakdown_s": med(
                lambda s: _total(s, "evaluation.length_breakdown")),
            "cli.self_s": med(lambda s: sum(v[2] for k, v in s["all"].items()
                                            if k.startswith("cli."))),
        }
        for kind, fn in SPLIT_FUNCTIONS.items():
            out[f"splits.build_s.{kind}"] = med(lambda s, fn=fn: _total(s, f"splits.{fn}"))
        for name in ("scan_generate", "scan_interpret", "split_random", "split_primitive",
                     "split_template", "split_length", "dbca_analyze", "prep_cgps_prefix",
                     "eval_score", "eval_length_breakdown"):
            out[f"cli.stage_s.{name}"] = med(lambda s, n=name: _total(s, f"cli.stage.{n}"))
        out.update(_common_layers(traced))
        return out


def _breakdown(test, train, correct_ids: set, width: int) -> list:
    """Expected length-breakdown rows over output lengths."""
    def bucket(ex):
        return (len(ex.output) - 1) // width

    n_train, n_test, n_ok = {}, {}, {}
    for ex in train:
        n_train[bucket(ex)] = n_train.get(bucket(ex), 0) + 1
    for ex in test:
        b = bucket(ex)
        n_test[b] = n_test.get(b, 0) + 1
        n_ok[b] = n_ok.get(b, 0) + (ex.id in correct_ids)
    max_train = max(len(ex.output) for ex in train)
    rows = []
    for b in sorted(set(n_train) | set(n_test)):
        low = b * width + 1
        rows.append((low, (b + 1) * width, n_train.get(b, 0), n_test.get(b, 0),
                     n_ok[b] / n_test[b] if n_test.get(b) else None, low > max_train))
    return rows


def _cgps_prefix(inp: tuple, out: tuple) -> tuple:
    reachable = {a for tok in inp for a in SCAN_TOKEN_MAP.get(tok, ())}
    n = sum(1 for tok in out if tok not in reachable)
    return tuple(f"<p{i}>" for i in range(n)) + inp


def _common_layers(traced: list) -> dict:
    """Metrics every workload reports from its traced operations."""
    def med(name):
        return _median([_total(s, name) for s, _, _ in traced])

    def load_mb_per_s(s, counters):
        t = _total(s, "data.load_dataset")
        return counters.get("data.load_dataset.bytes", 0) / 1e6 / t if t else 0.0

    return {
        "data.load_dataset_s": med("data.load_dataset"),
        "data.load_dataset_calls": _median(
            [s["all"].get("data.load_dataset", (0,))[0] for s, _, _ in traced]),
        "data.load_mb_per_s": _median([load_mb_per_s(s, c) for s, c, _ in traced]),
        "data.load_predictions_s": med("data.load_predictions"),
        "dbca.profile_s": med("dbca.profile"),
        "dbca.measure_s": med("dbca.measure"),
    }


class McdTarget:
    """dbca.build_mcd_split on the full set, one split per seed of a list
    derived from the workload seed, each run until it reaches the target
    divergence (or the proposal cap, which fails the operation)."""

    SCORE_REPEATS = 6

    @staticmethod
    def aggregate(prepares, scores) -> tuple:
        # Each split has its own seed, and the search length varies with it
        # (about 11% between seeds): the mean is the time per split over the
        # list.  Measuring repeats identical work, so it takes the median.
        return statistics.fmean(p["build"] for p in prepares), stage_medians(scores)

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.seed, self.tracer = work, seed, tracer
        rng = random.Random(f"mcd-seeds-{seed}")
        self.seeds = [rng.randrange(2 ** 31) for _ in range(1000)]

    def setup(self) -> None:
        from compgen import dbca, scan

        self.dbca = dbca
        self.examples = scan.enumerate_dataset()
        self.by_id = {ex.id: ex for ex in self.examples}

    def op(self, i: int, repeats: int) -> dict:
        dbca = self.dbca
        t0 = time.perf_counter()
        try:
            with self.tracer.span("mcd.build"):
                result, _ = dbca.build_mcd_split(
                    self.examples, target_compound_divergence=MCD_TARGET,
                    max_atom_divergence=MCD_ATOM_BOUND, seed=self.seeds[i],
                    iterations=MCD_PATIENCE, max_proposals=MCD_PROPOSAL_CAP,
                    train_fraction=MCD_TRAIN_FRACTION)
        except dbca.InfeasibleSplitError as exc:
            return {"prepare": {"build": time.perf_counter() - t0}, "score": [],
                    "error": str(exc)}
        build = time.perf_counter() - t0
        score = []
        for _ in range(repeats):
            t1 = time.perf_counter()
            with self.tracer.span("mcd.measure"):
                report = dbca.measure([self.by_id[j] for j in result.train_ids],
                                      [self.by_id[j] for j in result.test_ids])
            score.append({"measure": time.perf_counter() - t1})
        return {"prepare": {"build": build}, "score": score, "result": result, "report": report}

    def check(self, i: int, out: dict) -> list:
        name = f"mcd seed {self.seeds[i]}"
        if "error" in out:
            return [(name, [out["error"]])]
        report = out["report"]
        return [(name, checks.check_mcd(
            list(self.by_id), out["result"].train_ids, out["result"].test_ids,
            report.atom_divergence, report.compound_divergence,
            MCD_TARGET, MCD_ATOM_BOUND, MCD_TOLERANCE))]

    def layers(self, traced: list, setup_summary) -> dict:
        out = _common_layers(traced)
        out["dbca.build_mcd_split_s"] = _median(
            [_total(s, "dbca.build_mcd_split") for s, _, _ in traced])
        out["scan.enumerate_s"] = _total(setup_summary, "scan.enumerate_dataset")
        first = traced[0][2].get("report") if traced else None
        if first is not None:
            out["dbca.final_compound_divergence"] = first.compound_divergence
            out["dbca.final_atom_divergence"] = first.atom_divergence
        return out


class CfqIr:
    """Seeded CFQ-style queries through parse, ir_encode and serialize_ir at
    f1, f2 and f3, then IR predictions through ir_decode and clause-set
    scoring.  scan, splits and dbca never run."""

    aggregate = staticmethod(_medians)
    SCORE_REPEATS = 1

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.seed, self.tracer = work, seed, tracer

    def setup(self) -> None:
        from compgen import data, evaluation, sparql

        self.data, self.evaluation, self.sparql = data, evaluation, sparql
        w = self.work
        self.queries = gen.cfq_queries(self.seed, CFQ_QUERIES)
        _write_jsonl(w / "cfq_gold.jsonl", ({"id": q.id, "input": list(q.input_tokens()),
                                             "output": q.text().split()} for q in self.queries))
        self.expected_ir = {}
        self.expected_accuracy = {}
        for level in gen.LEVELS:
            self.expected_ir[level] = [gen.ir_text(q, level) for q in self.queries]
            preds = gen.ir_predictions(self.queries, self.expected_ir[level], self.seed, level)
            _write_jsonl(w / f"cfq_pred_{level}.jsonl",
                         ({"id": qid, "prediction": text.split(), "replica": 0}
                          for qid, text, _ in preds))
            self.expected_accuracy[level] = sum(ok for _, _, ok in preds) / len(preds)

    def op(self, i: int, repeats: int) -> dict:
        data, sparql, span = self.data, self.sparql, self.tracer.span
        w = self.work
        prepare = {}
        t0 = time.perf_counter()
        with span("cfq.load_gold"):
            golds = data.load_dataset(w / "cfq_gold.jsonl")
        t1 = time.perf_counter()
        with span("cfq.parse"):
            parsed = [sparql.parse_sparql(" ".join(ex.output)) for ex in golds]
        prepare["load"], prepare["parse"] = t1 - t0, time.perf_counter() - t1
        encoded = {}
        for level in gen.LEVELS:
            t0 = time.perf_counter()
            with span(f"cfq.encode.{level}"):
                encoded[level] = [sparql.serialize_ir(sparql.ir_encode(q, level))
                                  for q in parsed]
            prepare[f"encode {level}"] = time.perf_counter() - t0
        score = []
        for _ in range(repeats):
            times, accuracy, rejected, predicted = self._decode_and_score(golds)
            score.append(times)
        return {"prepare": prepare, "score": score, "encoded": encoded,
                "accuracy": accuracy, "reject_frac": rejected / predicted}

    def _decode_and_score(self, golds):
        data, sparql, evaluation = self.data, self.sparql, self.evaluation
        times, accuracy, rejected, predicted = {}, {}, 0, 0
        for level in gen.LEVELS:
            t0 = time.perf_counter()
            with self.tracer.span(f"cfq.score.{level}"):
                records = data.load_predictions(self.work / f"cfq_pred_{level}.jsonl")
                decoded = []
                for rec in records:
                    try:
                        q = sparql.ir_decode(" ".join(rec.tokens), level)
                    except sparql.IrDecodeError:
                        continue  # scored as wrong: no prediction for the id
                    decoded.append(data.PredictionRecord(
                        rec.example_id, tuple(sparql.serialize_sparql(q).split()), rec.replica))
                rejected += len(records) - len(decoded)
                predicted += len(records)
                accuracy[level] = evaluation.score_replicas(decoded, golds, clause_set=True)
            times[f"decode and score {level}"] = time.perf_counter() - t0
        return times, accuracy, rejected, predicted

    def check(self, i: int, out: dict) -> list:
        results = []
        for level in gen.LEVELS:
            results.append((f"ir encode {level}", checks.check_encoded(
                level, out["encoded"][level], self.expected_ir[level])))
            results.append((f"ir score {level}", checks.check_accuracy(
                level, out["accuracy"][level], self.expected_accuracy[level])))
        return results

    def layers(self, traced: list, setup_summary) -> dict:
        def med(fn):
            return _median([fn(s) for s, _, _ in traced])

        out = _common_layers(traced)
        out["sparql.parse_s"] = med(lambda s: _total(s, "sparql.parse_sparql", "cfq.parse"))
        for level in gen.LEVELS:
            enc, sc = f"cfq.encode.{level}", f"cfq.score.{level}"
            out[f"sparql.encode_s.{level}"] = med(
                lambda s, r=enc: (_total(s, "sparql.ir_encode", r)
                                  + _total(s, "sparql.serialize_ir", r)))
            out[f"sparql.decode_s.{level}"] = med(lambda s, r=sc: _total(s, "sparql.ir_decode", r))
        out["sparql.decode_reject_frac"] = _median([o["reject_frac"] for _, _, o in traced])
        out["evaluation.score_clause_set_s"] = med(lambda s: sum(
            v[2] for level in gen.LEVELS
            for k, v in s["by_root"].get(f"cfq.score.{level}", {}).items()
            if k.startswith("evaluation.")))
        return out


WORKLOADS = {"scan_suite": ScanSuite, "mcd_target": McdTarget, "cfq_ir": CfqIr}
