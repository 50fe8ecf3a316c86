"""Command line entry point.

Subcommands compose via files only.  Each leaf subcommand is one function,
the `run` default of its parser: it returns its output text, or writes its
own dataset or split file.  run() writes the text to --out or stdout, and
for a run with --out also `<out>.manifest.json`: its config lists every
parsed option that is not a path, and it holds the sha256 of every input
file (hashed before the run, which may write over one) and output file, so
results stay auditable and reproducible.  Each subcommand runs with the
cyclic garbage collector paused (see data.collector_paused).  The default
for --seed can be overridden with the COMPGEN_SEED environment variable,
which must then be an integer.  Bad input ends in an error that names the
file and line, with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

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


# The input-file options; together with --out they are the path options,
# which a manifest records as hashes rather than in its config.
_INPUTS = ("infile", "split", "gold", "pred", "train")
_NOT_CONFIG = {"command", "subcommand", "run", "out", *_INPUTS}
_BUILTIN_TOKEN_MAP = "scan"  # the --token-map value naming the built-in map


def _input_files(options) -> dict:
    """The input files given, by option; --token-map names one unless it
    names the built-in map."""
    files = {k: options[k] for k in _INPUTS if options.get(k) is not None}
    if options.get("token_map") not in (None, _BUILTIN_TOKEN_MAP):
        files["token_map"] = options["token_map"]
    return files


def _manifest(args, inputs: dict, out_sha256: str) -> str:
    """The manifest text of a run; inputs: the sha256 of each input file by
    option, as the run read it.  Text that UTF-8 cannot hold is refused here,
    before the caller writes any file."""
    options = vars(args)
    manifest = {
        "tool": "compgen",
        "version": __version__,
        "command": f"{args.command} {args.subcommand}",
        "config": {k: v for k, v in sorted(options.items())
                   if k not in _NOT_CONFIG and k not in inputs},
        "inputs": {str(options[k]): sha256 for k, sha256 in inputs.items()},
        "outputs": {str(args.out): out_sha256},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    text.encode("utf-8")  # a UnicodeEncodeError now, not from write_file
    return text


@contextmanager
def _naming(path, error):
    """Prefix an error of the type(s) error, about the records of a file, with its path."""
    try:
        yield
    except error as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _scan_generate(args):
    data.save_dataset(scan.enumerate_dataset(), args.out)


def _scan_interpret(args):
    return "".join(data.read_lines(args.infile, lambda line: " ".join(
        scan.interpret(scan.parse_command(line))) + "\n", "lines"))


def _dbca_analyze(args):
    by_id = {ex.id: ex for ex in data.load_dataset(args.infile)}
    split = splits.load_split(args.split)
    try:
        train = [by_id[i] for i in split.train_ids]
        test = [by_id[i] for i in split.test_ids]
    except KeyError as exc:  # the split file is read again to find the id's line
        doc, unknown = data.JsonFile(args.split), exc.args[0]
        ids = doc.value["train" if unknown in split.train_ids else "test"]
        raise doc.error(f"split references unknown id {unknown!r}, not in {args.infile}",
                        parent=ids, index=ids.index(unknown)) from None
    with _naming(args.infile, dbca.MissingTraceError):
        report = dbca.measure(train, test, args.atom_alpha, args.compound_alpha)
    return json.dumps(asdict(report), indent=2) + "\n"


def _ir_encode(args):
    return "".join(data.read_lines(args.infile, lambda line: sparql.serialize_ir(
        sparql.ir_encode(sparql.parse_sparql(line), args.level)) + "\n", "lines"))


def _ir_decode(args):
    return "".join(data.read_lines(args.infile, lambda line: sparql.serialize_sparql(
        sparql.ir_decode(line, args.level)) + "\n", "lines"))


def _prep_cgps_prefix(args):
    dataset = data.load_dataset(args.infile)
    token_map = (scan.TOKEN_MAP if args.token_map == _BUILTIN_TOKEN_MAP else
                 data.load_token_map(args.token_map) if args.token_map else None)
    if token_map is None and not args.identity:
        raise data.DataError("need --token-map and/or --identity")
    with _naming(args.infile, data.AlreadyPrefixedError):
        data.save_dataset(data.cgps_prefix_dataset(dataset, token_map, args.identity,
                                                   args.global_length), args.out)


def _eval_score(args):
    golds = data.load_dataset(args.gold)
    preds = data.load_predictions(args.pred)
    with (_naming(args.gold, evaluation.UnknownIdError),
          _naming(args.pred, evaluation.PredictionError)):
        per_replica = evaluation.score_replicas(
            preds, golds, relax_oov_braces=args.relax_braces,
            oov_token=args.oov_token, clause_set=args.clause_set)
    accs = list(per_replica.values())
    agg = evaluation.aggregate_replicas(accs, args.variance)
    return json.dumps({"split": args.split_name, "replica_accuracies": accs,
                       **asdict(agg)}, indent=2) + "\n"


# An `eval score` output's evaluation.AggregateStat fields, each with the JSON kind of its type.
_CELL = {f.name: {"float": "a number", "str": "a string", "int": "an integer"}[f.type]
         for f in fields(evaluation.AggregateStat)}


def _eval_report(args):
    # Cells are `eval score` outputs, in fractions; the table shows points.
    doc = data.JsonFile(args.infile)
    doc.fields(doc.value, {})
    results = {}
    for model, per_split in doc.value.items():
        doc.fields(per_split, {}, doc.value)
        results[model] = row = {}
        for split_name, cell in per_split.items():
            if cell is not None:
                mean, variance, kind, n_replicas = doc.fields(cell, _CELL, per_split)
                cell = evaluation.AggregateStat(100 * mean, 100 * variance, kind, n_replicas)
            row[split_name] = cell
    return evaluation.render_results_table(results)


def _eval_length_breakdown(args):
    golds = data.load_dataset(args.gold)
    train = data.load_dataset(args.train)
    preds = data.load_predictions(args.pred)
    with (_naming(args.gold, evaluation.UnknownIdError),
          _naming(args.pred, evaluation.PredictionError)):
        buckets = evaluation.length_breakdown(preds, golds, train,
                                              args.bucket_width, args.axis)
    lines = [",".join(f.name for f in fields(evaluation.LengthBucket))]
    for b in buckets:
        acc = "" if b.accuracy is None else f"{b.accuracy:g}"
        lines.append(f"{b.low},{b.high},{b.train_count},{b.test_count},"
                     f"{acc},{int(b.unseen_length)}")
    return "\n".join(lines) + "\n"


_POINT = {"divergence": "a number", "accuracy": "a number", "label": "a string or null"}


def _eval_curve(args):
    doc = data.JsonFile(args.infile)
    if not isinstance(doc.value, list):
        raise doc.error("expected a JSON list of points")
    points = []
    for p in doc.value:
        d, a, label = doc.fields(p, _POINT, doc.value)
        points.append((d, a, label or ""))
    try:
        return evaluation.divergence_curve(points)
    except evaluation.EvalError as exc:
        raise doc.error(str(exc), parent=doc.value, index=exc.index) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compgen-toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand",
                                                               required=True)

    def leaf(subparsers, name, run, help=None, out=False):
        """A subcommand running run(args), with --out (required if out)."""
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out", required=out)
        return p

    def random_partition(p):
        p.add_argument("--seed", type=_seed, default=os.environ.get("COMPGEN_SEED", "0"))
        p.add_argument("--train-fraction", type=float, default=0.8)

    def alphas(p):
        p.add_argument("--atom-alpha", type=float, default=dbca.DEFAULT_ATOM_ALPHA)
        p.add_argument("--compound-alpha", type=float,
                       default=dbca.DEFAULT_COMPOUND_ALPHA)

    scan_sub = group("scan", "dataset generation and interpretation")
    leaf(scan_sub, "generate", _scan_generate,
         "enumerate the full dataset (tsv for --out *.tsv or *.txt, else jsonl)", out=True)
    p = leaf(scan_sub, "interpret", _scan_interpret, "map commands (one per line) to actions")
    p.add_argument("--in", dest="infile")

    split_sub = group("split", "train/test split construction")

    def split(name, build):
        """A subcommand that saves build(dataset, args) to --out."""
        def run_split(args):
            dataset = data.load_dataset(args.infile)
            with _naming(args.infile, (dbca.MissingTraceError, splits.EmptySideError)):
                splits.save_split(build(dataset, args), args.out)
        p = leaf(split_sub, name, run_split, out=True)
        p.add_argument("--in", dest="infile", required=True)
        return p

    p = split("random", lambda ds, a: splits.build_random_split(ds, a.seed, a.train_fraction))
    random_partition(p)
    p = split("primitive", lambda ds, a: splits.build_primitive_holdout(ds, a.primitive))
    p.add_argument("--primitive", required=True)
    p = split("subcommand", lambda ds, a: splits.build_subcommand_holdout(ds, a.phrase))
    p.add_argument("--phrase", required=True)
    p = split("template", lambda ds, a: splits.build_template_holdout(ds, a.template))
    p.add_argument("--template", required=True)
    p = split("length", lambda ds, a: splits.build_length_split(ds, a.max_length))
    p.add_argument("--max-length", type=int, default=22)
    p = split("mcd", lambda ds, a: dbca.build_mcd_split(
        ds, target_compound_divergence=a.target, max_atom_divergence=a.max_atom_div,
        seed=a.seed, iterations=a.iterations, train_fraction=a.train_fraction,
        atom_alpha=a.atom_alpha, compound_alpha=a.compound_alpha)[0])
    random_partition(p)
    p.add_argument("--target", type=float, default=1.0,
                   help="target compound divergence")
    p.add_argument("--max-atom-div", type=float, default=0.02)
    p.add_argument("--iterations", type=int, default=20000,
                   help="proposals without improvement before stopping")
    alphas(p)

    p = leaf(group("dbca", "divergence analysis of a split"), "analyze", _dbca_analyze,
             "measure divergences of a split file as `split` writes it (spec.kind, train, test)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--split", required=True)
    alphas(p)

    ir_sub = group("ir", "intermediate SPARQL representations")
    for name, run_ir in (("encode", _ir_encode), ("decode", _ir_decode)):
        p = leaf(ir_sub, name, run_ir)
        p.add_argument("--level", choices=list(sparql.IR_LEVELS), required=True)
        p.add_argument("--in", dest="infile")

    p = leaf(group("prep", "dataset preprocessing"), "cgps-prefix", _prep_cgps_prefix,
             "prepend placeholder tokens for non-mappable output tokens", out=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--token-map", default=None,
                   help="'scan' for the built-in SCAN map, or a JSON file "
                   "mapping input tokens to output token lists")
    p.add_argument("--identity", action="store_true",
                   help="treat output tokens equal to an input token as "
                   "mappable (the CFQ default)")
    p.add_argument("--global-length", action="store_true",
                   help="use one fixed prefix length (the dataset maximum)")

    eval_sub = group("eval", "prediction scoring and reporting")
    p = leaf(eval_sub, "score", _eval_score)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--relax-braces", action="store_true")
    p.add_argument("--oov-token", default=evaluation.DEFAULT_OOV_TOKEN)
    p.add_argument("--clause-set", action="store_true")
    p.add_argument("--variance", default="stdev", choices=evaluation.VARIANCE_KINDS)
    p.add_argument("--split-name", default="split")
    p = leaf(eval_sub, "report", _eval_report, out=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON: {model: {split: <eval score output> | null}}")
    p = leaf(eval_sub, "length-breakdown", _eval_length_breakdown)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--bucket-width", type=int, default=5)
    p.add_argument("--axis", choices=evaluation.LENGTH_AXES, default="output")
    p = leaf(eval_sub, "curve", _eval_curve)
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON list of {divergence, accuracy, label}")
    return parser


def run(argv) -> int:
    """Run one subcommand: write its text to --out (or stdout), and with
    --out also the manifest.  Bad input ends in exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        files = _input_files(vars(args)) if args.out is not None else {}
        inputs = {k: _sha256(path) for k, path in files.items()}
        with data.collector_paused():
            text = args.run(args)
        if args.out is None:
            sys.stdout.write(text)
            return 0
        if text is None:  # the subcommand wrote --out
            manifest = _manifest(args, inputs, _sha256(args.out))
        else:  # the manifest is made first: one that fails leaves --out as it was
            manifest = _manifest(args, inputs, hashlib.sha256(text.encode("utf-8")).hexdigest())
            data.write_file(args.out, [text])
        data.write_file(f"{args.out}.manifest.json", [manifest])
    except (ValueError, OSError) as exc:
        print(f"compgen: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
