"""Command-line frontend.

Subcommands: approx (build a certificate from a JSON job config),
verify (check a certificate file), subgroup (inspect a subgroup graph
and optionally its Hall separator), conj-demo (build and check the
conjugation-action certificate), fuzz (mutation and oracle harnesses).

Exit codes: 0 accept/success, 1 reject, 2 malformed input, a pipeline
error or a write error, a closed stdout included.  All numerics in
configs and outputs are integers or "p/q" rational strings; certificate
files hold one sorted top-level key per line with compact values, so
identical jobs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import reprlib
import sys

from .actions import (
    BiregularAction,
    CosetAction,
    RestrictedAction,
    action_from_json,
    base_action,
    parse_element,
    point_rank,
)
from .certificate import Certificate, CertificateFormatError, epsilon_from_json, write_certificate
from .stallings import core_graph
from .verifier import verify_certificate
from .words import MAX_RANK, Record, Word, parse_word


class JobConfig(Record):
    """A build job: action, F, E, tolerance, core cap, output path."""

    __slots__ = ("action", "F", "E", "epsilon", "core_cap", "out")


JOB_FIELDS = ("action", "F", "E", "epsilon", "caps", "out")


def job_from_dict(data: dict) -> JobConfig:
    """Parse a job config; a key outside ``JOB_FIELDS``, a cap other
    than ``core_cap``, or ``caps`` over a biregular action raises
    ValueError starting with the key."""
    from .quotients import DEFAULT_CORE_CAP

    if not isinstance(data, dict):
        raise ValueError("job config must be a JSON object")
    for key in data:
        if key not in JOB_FIELDS:
            raise ValueError(f"{key}: unknown field; a job config has {', '.join(JOB_FIELDS)}")
    for key in ("action", "F", "E"):
        if key not in data:
            raise ValueError(f"job config missing {key!r}")
    for key in ("F", "E"):
        if not isinstance(data[key], list):
            raise ValueError(f"{key} must be a list, not {reprlib.repr(data[key])}")
    action = action_from_json(data["action"])
    if "caps" in data and isinstance(base_action(action), BiregularAction):
        # the biregular quotient search has fixed bounds, so a cap would be ignored
        raise ValueError("caps: does not apply to a biregular action, "
                         "whose quotient search has fixed bounds")
    F = tuple(parse_element(action, item) for item in data["F"])
    rank = point_rank(action)
    E = tuple(parse_word(t, rank) for t in data["E"])
    epsilon = epsilon_from_json(data.get("epsilon", 0))
    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        raise ValueError("caps must be an object")
    for key in caps:
        if key != "core_cap":
            raise ValueError(f"{key}: unknown cap; the only cap is core_cap")
    core_cap = caps.get("core_cap", DEFAULT_CORE_CAP)
    if type(core_cap) is not int or core_cap <= 0:
        raise ValueError("cap core_cap must be a positive integer")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"out must be a path string, not {reprlib.repr(out)}")
    return JobConfig(action, F, E, epsilon, core_cap, out)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _summary(cert: Certificate, out: str | None) -> dict:
    prov = cert.provenance
    payload = {
        "carrier_size": cert.approx.size,
        "b_size": len(cert.witness.b_labels),
        "epsilon_achieved": str(cert.epsilon),
    }
    if "strategy" in prov:
        payload["strategy"] = prov["strategy"]
    if "separator" in prov:
        payload["separator_index"] = prov["separator"]["index"]
    if "quotient" in prov:
        payload["quotient_order"] = prov["quotient"]["order"]
    if out:
        payload["out"] = out
    return payload


def _write(cert: Certificate, out: str) -> bool:
    """Write the certificate to ``out``; an unwritable path is reported
    as a write error, with no partial file left behind."""
    try:
        write_certificate(cert, out)
    except OSError as exc:
        print(f"error [write]: {out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_approx(args) -> int:
    # builder, quotients and harness are imported by the commands that run
    # them, so a verify process never compiles or executes their code
    from .builder import StageError, approximate

    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        job = job_from_dict(data)
    except (OSError, json.JSONDecodeError, RecursionError, TypeError, ValueError) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    out = args.out or job.out
    try:
        cert = approximate(job.action, job.F, job.E, job.epsilon, job.core_cap)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 2
    if out and not _write(cert, out):
        return 2
    _emit(_summary(cert, out), args.json)
    return 0


def cmd_verify(args) -> int:
    epsilon = None
    if args.epsilon is not None:
        try:
            epsilon = epsilon_from_json(args.epsilon)
        except ValueError as exc:
            print(f"error [epsilon]: {exc}", file=sys.stderr)
            return 2
    try:
        report = verify_certificate(args.certificate, epsilon)
    except CertificateFormatError as exc:
        print(f"error [schema]: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) if args.json
          else report.to_text())
    return 0 if report.accepted else 1


def _word_list(text: str, rank: int) -> list[Word]:
    if not text:
        return []
    return [parse_word(part, rank) for part in text.split(",")]


def cmd_subgroup(args) -> int:
    from .quotients import InseparableError, hall_completion

    if not 1 <= args.rank <= MAX_RANK:
        print(f"error [config]: rank must be between 1 and {MAX_RANK}, got {args.rank}",
              file=sys.stderr)
        return 2
    try:
        gens = _word_list(args.gens, args.rank)
        graph = core_graph(gens, args.rank)
        avoid = _word_list(args.avoid, args.rank) if args.avoid is not None else None
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    payload: dict = {
        "rank": args.rank,
        "generators": [w.text() for w in gens],
        "vertices": graph.vertex_count,
        "edges": [f"{u} -{chr(96 + l)}-> {v}" for u, l, v in graph.edges],
    }
    if avoid is not None:
        try:
            table = hall_completion(graph, avoid)
        except InseparableError as exc:
            payload["separator"] = f"inseparable: {exc.word.text()!r} lies in the subgroup"
            _emit(payload, args.json)
            return 0
        payload["separator_index"] = table.size
        for i, img in enumerate(table.images):
            payload[f"table_{chr(97 + i)}"] = list(img)
    _emit(payload, args.json)
    return 0


def cmd_conj_demo(args) -> int:
    from .builder import StageError, approximate

    try:
        F = _word_list(args.f, args.rank)
        E = _word_list(args.e, args.rank)
        diag = tuple(
            (Word((i,), args.rank), Word((i,), args.rank)) for i in range(1, args.rank + 1)
        )
        spec = RestrictedAction(BiregularAction(args.rank), diag)
        cert = approximate(spec, F, E)
        bireg = approximate(BiregularAction(args.rank), [(g, g) for g in F], E)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    if args.out and not _write(cert, args.out):
        return 2
    report = verify_certificate(cert)
    diagonal_ok = all(
        cert.approx.permutation_of(g) == bireg.approx.permutation_of((g, g)) for g in F
    )
    payload = _summary(cert, args.out)
    payload["verdict"] = "accept" if report.accepted else "reject"
    payload["diagonal_phi_agreement"] = diagonal_ok
    _emit(payload, args.json)
    return 0 if report.accepted and diagonal_ok else 1


def cmd_fuzz(args) -> int:
    from .builder import approximate
    from .harness import mutation_battery, oracle_agreement, oracle_cases

    w2 = lambda t: parse_word(t, 2)
    bases = [
        approximate(CosetAction(2, (w2("a"),)), [w2("a"), w2("b")], [w2(""), w2("b")]),
        approximate(CosetAction(2, (w2("aa"), w2("b"))), [w2("a"), w2("b")], [w2(""), w2("a")]),
    ]
    battery = mutation_battery(bases, args.cases, args.seed)
    kills = sum(1 for r in battery if r["killed"])
    agreements = oracle_agreement(oracle_cases())
    agreed = sum(1 for r in agreements if r["agreed"])
    payload = {
        "mutation_kill_rate": f"{kills}/{len(battery)}",
        "oracle_agreement": f"{agreed}/{len(agreements)}",
    }
    if args.json:
        payload["mutations"] = battery
        payload["oracle_cases"] = agreements
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"mutation kill-rate: {payload['mutation_kill_rate']}")
        print(f"oracle agreement: {payload['oracle_agreement']}")
    ok = kills == len(battery) and agreed == len(agreements)
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _approx_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON job config path")
    p.add_argument("--out", help="certificate output path (overrides config)")
    p.add_argument("--json", action="store_true", help="JSON summary")
    p.set_defaults(func=cmd_approx)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("certificate", help="certificate path")
    p.add_argument("--epsilon", help="tolerance override, e.g. 1/10")
    p.add_argument("--json", action="store_true", help="JSON report")
    p.set_defaults(func=cmd_verify)


def _subgroup_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--gens", default="", help="comma-separated subgroup generators")
    p.add_argument("--avoid", help="comma-separated words the separator must exclude")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subgroup)


def _conj_demo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--f", default="a,b", help="comma-separated F words")
    p.add_argument("--e", default="1,a,b,baB", help="comma-separated E words")
    p.add_argument("--out", help="certificate output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conj_demo)


def _fuzz_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=20, help="number of mutations")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)


# subcommand -> (help text, function that adds its arguments)
SUBCOMMANDS = {
    "approx": ("build a certificate from a job config", _approx_arguments),
    "verify": ("verify a certificate file", _verify_arguments),
    "subgroup": ("inspect a subgroup graph / Hall separator", _subgroup_arguments),
    "conj-demo": ("certificate for the conjugation action", _conj_demo_arguments),
    "fuzz": ("mutation and oracle harnesses", _fuzz_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of all five commands."""
    parser = argparse.ArgumentParser(
        prog="soficert",
        description="build and verify exact sofic-approximation certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The subparser and the call on argv[1:] that the full parser would make,
    # so a subcommand's help and errors read the same.  No subcommand, or an
    # argument left over, goes through the full parser for its message.
    args = rest = None
    if argv and argv[0] in SUBCOMMANDS:
        parser = argparse.ArgumentParser(prog=f"soficert {argv[0]}")
        SUBCOMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser().parse_args(argv)
    # A command's certificate arrays are acyclic and live until it returns,
    # so the cyclic collector would re-walk them and free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # a reader that closed stdout early, such as head; point stdout at
        # the null device so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error [write]: <stdout>: {exc.strerror}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
