"""Command line entry point.

Subcommands compose via files only; every run that writes an output file
also writes a `<output>.manifest.json` with the resolved configuration and
content hashes of inputs and outputs, so results stay auditable and
reproducible.  The default for --seed can be overridden with the
COMPGEN_SEED environment variable, which must then be an integer.  Bad
input ends in an error that names the file and line, with exit code 2.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__, data, dbca, evaluation, scan, splits, sparql


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer (from --seed, or COMPGEN_SEED when "
            "--seed is not given)") from None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, command: str, config: dict, inputs: list) -> None:
    manifest = {
        "tool": "compgen",
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(out_path): _sha256(out_path)},
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _map_lines(fn, path) -> str:
    """Apply fn to each non-blank line of the file (stdin when path is None).
    A ValueError from fn is reported with the file and the line number,
    counting blank lines."""
    text = sys.stdin.read() if path is None else Path(path).read_text(encoding="utf-8")
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(fn(line) + "\n")
        except ValueError as exc:
            name = "<stdin>" if path is None else path
            raise data.DataError(f"{name}:{lineno}: {exc}") from exc
    return "".join(out)


def _read_json(path):
    """Parse a JSON file.  Also return require(value, *keys, parent): the
    values of keys in the object value, or an EvalError that names the file
    and the line where value starts (where parent starts, when value is not
    an object or array)."""
    text = Path(path).read_text(encoding="utf-8")
    newlines = [m.start() for m in re.finditer("\n", text)]
    lines = {}

    def located(parse):
        def parse_located(s_and_end, *args):
            value, end = parse(s_and_end, *args)
            lines[id(value)] = bisect.bisect(newlines, s_and_end[1]) + 1
            return value, end
        return parse_located

    decoder = json.JSONDecoder()
    decoder.parse_object = located(json.decoder.JSONObject)
    decoder.parse_array = located(json.decoder.JSONArray)
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    try:
        value = decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise evaluation.EvalError(f"{path}:{exc.lineno}: {exc.msg}") from exc

    def require(value, *keys, parent=None):
        container = value if isinstance(value, (dict, list)) else parent
        where = f"{path}:{lines.get(id(container), 1)}"
        if not isinstance(value, dict):
            raise evaluation.EvalError(f"{where}: expected a JSON object")
        for key in keys:
            if key not in value:
                raise evaluation.EvalError(f"{where}: missing key {key!r}")
        return [value[key] for key in keys]

    return value, require


def _write_text(text: str, path, command: str, config: dict, inputs: list) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    Path(path).write_text(text, encoding="utf-8")
    _write_manifest(path, command, config, inputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compgen-toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    scan_p = sub.add_parser("scan", help="dataset generation and interpretation")
    scan_sub = scan_p.add_subparsers(dest="subcommand", required=True)
    gen = scan_sub.add_parser("generate", help="enumerate the full dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    interp = scan_sub.add_parser("interpret",
                                 help="map commands (one per line) to actions")
    interp.add_argument("--in", dest="infile", default=None)
    interp.add_argument("--out", default=None)

    split_p = sub.add_parser("split", help="train/test split construction")
    split_sub = split_p.add_subparsers(dest="subcommand", required=True)

    def split_common(p):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)

    p = split_sub.add_parser("random")
    split_common(p)
    p.add_argument("--seed", type=_seed, default=os.environ.get("COMPGEN_SEED", "0"))
    p.add_argument("--train-fraction", type=float, default=0.8)
    p = split_sub.add_parser("primitive")
    split_common(p)
    p.add_argument("--primitive", required=True)
    p = split_sub.add_parser("subcommand")
    split_common(p)
    p.add_argument("--phrase", required=True)
    p = split_sub.add_parser("template")
    split_common(p)
    p.add_argument("--template", required=True)
    p = split_sub.add_parser("length")
    split_common(p)
    p.add_argument("--max-length", type=int, default=22)
    p = split_sub.add_parser("mcd")
    split_common(p)
    p.add_argument("--seed", type=_seed, default=os.environ.get("COMPGEN_SEED", "0"))
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--target", type=float, default=1.0,
                   help="target compound divergence")
    p.add_argument("--max-atom-div", type=float, default=0.02)
    p.add_argument("--iterations", type=int, default=20000,
                   help="proposals without improvement before stopping")
    p.add_argument("--atom-alpha", type=float, default=dbca.DEFAULT_ATOM_ALPHA)
    p.add_argument("--compound-alpha", type=float,
                   default=dbca.DEFAULT_COMPOUND_ALPHA)
    p.add_argument("--report", default=None,
                   help="divergence report path (default <out>.divergence.json)")

    dbca_p = sub.add_parser("dbca", help="divergence analysis of a split")
    dbca_sub = dbca_p.add_subparsers(dest="subcommand", required=True)
    p = dbca_sub.add_parser("analyze", help="measure divergences of an "
                            "existing (e.g. released) split id list")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--atom-alpha", type=float, default=dbca.DEFAULT_ATOM_ALPHA)
    p.add_argument("--compound-alpha", type=float,
                   default=dbca.DEFAULT_COMPOUND_ALPHA)

    ir_p = sub.add_parser("ir", help="intermediate SPARQL representations")
    ir_sub = ir_p.add_subparsers(dest="subcommand", required=True)
    for name in ("encode", "decode"):
        p = ir_sub.add_parser(name)
        p.add_argument("--level", choices=list(sparql.IR_LEVELS), required=True)
        p.add_argument("--in", dest="infile", default=None)
        p.add_argument("--out", default=None)

    prep_p = sub.add_parser("prep", help="dataset preprocessing")
    prep_sub = prep_p.add_subparsers(dest="subcommand", required=True)
    p = prep_sub.add_parser("cgps-prefix", help="prepend placeholder tokens "
                            "for non-mappable output tokens")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--token-map", default=None,
                   help="'scan' for the built-in SCAN map, or a JSON file "
                   "mapping input tokens to output token lists")
    p.add_argument("--identity", action="store_true",
                   help="treat output tokens equal to an input token as "
                   "mappable (the CFQ default)")
    p.add_argument("--global-length", action="store_true",
                   help="use one fixed prefix length (the dataset maximum)")

    eval_p = sub.add_parser("eval", help="prediction scoring and reporting")
    eval_sub = eval_p.add_subparsers(dest="subcommand", required=True)
    p = eval_sub.add_parser("score")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--relax-braces", action="store_true")
    p.add_argument("--oov-token", default=evaluation.DEFAULT_OOV_TOKEN)
    p.add_argument("--clause-set", action="store_true")
    p.add_argument("--variance", default="stdev",
                   choices=["stdev", "ci95", "ci95_bootstrap"])
    p.add_argument("--split-name", default="split")
    p.add_argument("--out", default=None)
    p = eval_sub.add_parser("report")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON: {model: {split: <eval score output> | null}}")
    p.add_argument("--out", required=True)
    p = eval_sub.add_parser("length-breakdown")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--bucket-width", type=int, default=5)
    p.add_argument("--axis", choices=["input", "output"], default="output")
    p.add_argument("--out", default=None)
    p = eval_sub.add_parser("curve")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON list of {divergence, accuracy, label}")
    p.add_argument("--out", default=None)
    return parser


def _cmd_scan(args) -> int:
    if args.subcommand == "generate":
        examples = scan.enumerate_dataset()
        data.save_dataset(examples, args.out, args.format)
        _write_manifest(args.out, "scan generate",
                        {"format": args.format}, [])
        return 0
    text = _map_lines(lambda line: " ".join(scan.interpret(scan.parse_command(line))),
                      args.infile)
    _write_text(text, args.out, "scan interpret", {},
                [args.infile] if args.infile else [])
    return 0


def _cmd_split(args) -> int:
    dataset = data.load_dataset(args.infile)
    sc = args.subcommand
    if sc == "random":
        result = splits.build_random_split(dataset, args.seed, args.train_fraction)
        config = {"seed": args.seed, "train_fraction": args.train_fraction}
    elif sc == "primitive":
        result = splits.build_primitive_holdout(dataset, args.primitive)
        config = {"primitive": args.primitive}
    elif sc == "subcommand":
        result = splits.build_subcommand_holdout(dataset, args.phrase)
        config = {"phrase": args.phrase}
    elif sc == "template":
        result = splits.build_template_holdout(dataset, args.template)
        config = {"template": args.template}
    elif sc == "length":
        result = splits.build_length_split(dataset, args.max_length)
        config = {"max_length": args.max_length}
    else:  # mcd
        config = {"seed": args.seed, "train_fraction": args.train_fraction,
                  "target": args.target, "max_atom_div": args.max_atom_div,
                  "iterations": args.iterations, "atom_alpha": args.atom_alpha,
                  "compound_alpha": args.compound_alpha}
        result, report = dbca.build_mcd_split(
            dataset, target_compound_divergence=args.target,
            max_atom_divergence=args.max_atom_div, seed=args.seed,
            iterations=args.iterations, train_fraction=args.train_fraction,
            atom_alpha=args.atom_alpha, compound_alpha=args.compound_alpha)
        report_path = args.report or args.out + ".divergence.json"
        Path(report_path).write_text(
            json.dumps(report.to_jsonable(), indent=2) + "\n", encoding="utf-8")
        _write_manifest(report_path, "split mcd", config, [args.infile])
    splits.save_split(result, args.out)
    _write_manifest(args.out, f"split {sc}", config, [args.infile])
    return 0


def _cmd_dbca(args) -> int:
    dataset = data.load_dataset(args.infile)
    by_id = {ex.id: ex for ex in dataset}
    split = splits.load_split(args.split)
    try:
        train = [by_id[i] for i in split.train_ids]
        test = [by_id[i] for i in split.test_ids]
    except KeyError as exc:
        raise data.DataError(f"split references unknown id {exc.args[0]!r}")
    report = dbca.measure(train, test, args.atom_alpha, args.compound_alpha)
    text = json.dumps(report.to_jsonable(), indent=2) + "\n"
    _write_text(text, args.out, "dbca analyze",
                {"atom_alpha": args.atom_alpha,
                 "compound_alpha": args.compound_alpha},
                [args.infile, args.split])
    return 0


def _cmd_ir(args) -> int:
    def convert(line):
        if args.subcommand == "encode":
            return sparql.serialize_ir(sparql.ir_encode(sparql.parse_sparql(line), args.level))
        return sparql.serialize_sparql(sparql.ir_decode(line, args.level))

    text = _map_lines(convert, args.infile)
    _write_text(text, args.out, f"ir {args.subcommand}", {"level": args.level},
                [args.infile] if args.infile else [])
    return 0


def _cmd_prep(args) -> int:
    dataset = data.load_dataset(args.infile)
    token_map = None
    if args.token_map == "scan":
        token_map = data.SCAN_TOKEN_MAP
    elif args.token_map:
        raw = json.loads(Path(args.token_map).read_text(encoding="utf-8"))
        token_map = {k: tuple(v) for k, v in raw.items()}
    if token_map is None and not args.identity:
        raise data.DataError("need --token-map and/or --identity")
    prefixed = data.cgps_prefix_dataset(dataset, token_map, args.identity,
                                        args.global_length)
    data.save_dataset(prefixed, args.out)
    _write_manifest(args.out, "prep cgps-prefix",
                    {"token_map": args.token_map, "identity": args.identity,
                     "global_length": args.global_length}, [args.infile])
    return 0


@contextmanager
def _naming(path):
    """Prefix an EvalError about a prediction file with its path."""
    try:
        yield
    except evaluation.EvalError as exc:
        raise evaluation.EvalError(f"{path}: {exc}") from exc


def _cmd_eval(args) -> int:
    sc = args.subcommand
    if sc == "score":
        golds = data.load_dataset(args.gold)
        preds = data.load_predictions(args.pred)
        with _naming(args.pred):
            per_replica = evaluation.score_replicas(
                preds, golds, relax_oov_braces=args.relax_braces,
                oov_token=args.oov_token, clause_set=args.clause_set)
        accs = list(per_replica.values())
        agg = evaluation.aggregate_replicas(accs, args.variance)
        report = evaluation.EvalReport(args.split_name, tuple(accs), agg)
        text = json.dumps(report.to_jsonable(), indent=2) + "\n"
        _write_text(text, args.out, "eval score",
                    {"relax_braces": args.relax_braces,
                     "oov_token": args.oov_token, "clause_set": args.clause_set,
                     "variance": args.variance},
                    [args.gold, args.pred])
        return 0
    if sc == "report":
        # Cells are `eval score` outputs, in fractions; the table shows points.
        raw, require = _read_json(args.infile)
        require(raw)
        results = {}
        for model, per_split in raw.items():
            require(per_split, parent=raw)
            results[model] = {}
            for split_name, cell in per_split.items():
                if cell is None:
                    results[model][split_name] = None
                    continue
                mean, variance, kind, n = require(
                    cell, "mean", "variance", "variance_kind", "n_replicas", parent=per_split)
                results[model][split_name] = evaluation.AggregateStat(
                    100 * mean, 100 * variance, kind, n)
        text = evaluation.render_results_table(results)
        _write_text(text, args.out, "eval report", {}, [args.infile])
        return 0
    if sc == "length-breakdown":
        golds = data.load_dataset(args.gold)
        train = data.load_dataset(args.train)
        preds = data.load_predictions(args.pred)
        with _naming(args.pred):
            buckets = evaluation.length_breakdown(preds, golds, train,
                                                  args.bucket_width, args.axis)
        lines = ["low,high,train_count,test_count,accuracy,unseen_length"]
        for b in buckets:
            acc = "" if b.accuracy is None else f"{b.accuracy:g}"
            lines.append(f"{b.low},{b.high},{b.train_count},{b.test_count},"
                         f"{acc},{int(b.unseen_length)}")
        _write_text("\n".join(lines) + "\n", args.out, "eval length-breakdown",
                    {"bucket_width": args.bucket_width, "axis": args.axis},
                    [args.gold, args.pred, args.train])
        return 0
    # curve
    raw, require = _read_json(args.infile)
    if not isinstance(raw, list):
        raise evaluation.EvalError(f"{args.infile}:1: expected a JSON list of points")
    points = [(*require(p, "divergence", "accuracy", parent=raw), p.get("label", ""))
              for p in raw]
    text = evaluation.divergence_curve(points)
    _write_text(text, args.out, "eval curve", {}, [args.infile])
    return 0


_DISPATCH = {
    "scan": _cmd_scan,
    "split": _cmd_split,
    "dbca": _cmd_dbca,
    "ir": _cmd_ir,
    "prep": _cmd_prep,
    "eval": _cmd_eval,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"compgen: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
