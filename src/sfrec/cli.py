"""Command line entry points.

Four subcommands: ``train`` runs the full slow/fast lifecycle and writes a
results CSV (optionally persisting per-seed state), ``eval`` re-ranks the test
phase from saved state, ``gradcheck`` verifies analytic gradients against
finite differences, and ``inspect-split`` reports dataset statistics.

Every subcommand accepts ``--config FILE`` plus one flag per config field
(flags win over file values).  Relative dataset paths are also looked up
under ``$SFREC_DATA_DIR``.  Exit code 0 means success; any failure prints a
single JSON line to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import exchange as ex
from .atomic import write_atomic
from .config import ExperimentConfig, load_config
from .fast import FastModel
from .harness import LifecycleError, evaluate_from_state, prepare_data, run_lifecycle, write_results
from .slow import SlowModel

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]


def _add_config_flags(parser):
    group = parser.add_argument_group("config overrides")
    group.add_argument("--config", metavar="FILE", help="key = value config file")
    for name in _CONFIG_FIELDS:
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, metavar="V", default=None)


def _build_config(args):
    overrides = {name: getattr(args, name) for name in _CONFIG_FIELDS if getattr(args, name) is not None}
    config = load_config(args.config, overrides)
    if config.dataset and not os.path.isabs(config.dataset) and not os.path.exists(config.dataset):
        root = os.environ.get("SFREC_DATA_DIR")
        if root and (Path(root) / config.dataset).exists():
            config.dataset = str(Path(root) / config.dataset)
    return config


def _state_paths(state_dir, seed):
    state_dir = Path(state_dir)
    return (
        state_dir / f"seed{seed}.ckpt",
        state_dir / f"seed{seed}.msgs",
        state_dir / f"seed{seed}_exposures.json",
    )


def write_exposures(path, exposures):
    """Per-user shown-item streams as one JSON object keyed by user, replaced atomically."""
    write_atomic(path, json.dumps({str(u): log for u, log in exposures.items()}).encode("utf-8"))


def read_exposures(path):
    """The per-user shown-item streams :func:`write_exposures` wrote, keyed by int user.

    Anything but a JSON object of ``user: [[item, ...], ...]`` with integer
    users and items, or two streams for one user (a repeated key, or keys
    such as ``"1"`` and ``"01"`` that name one user), raises
    :class:`LifecycleError` naming ``path``.
    """

    def unique(pairs):  # json keeps only the last value of a repeated key, and int() reads "01" as 1
        seen = set()
        for key, _ in pairs:
            user = int(key) if key.isdecimal() else key
            if user in seen:
                raise LifecycleError(f"{path}: user {user} has two exposure streams")
            seen.add(user)
        return dict(pairs)

    try:
        data = json.loads(Path(path).read_bytes(), object_pairs_hook=unique)
    except ValueError as err:  # also a non-UTF-8 file
        raise LifecycleError(f"{path}: not a JSON exposures file: {err}") from None
    if not isinstance(data, dict):
        raise LifecycleError(f"{path}: exposures must be a JSON object keyed by user, not {type(data).__name__}")
    exposures = {}
    for user, log in data.items():
        if not user.isdecimal():
            raise LifecycleError(f"{path}: user key {user!r} is not an integer")
        if not isinstance(log, list) or not all(
            isinstance(step, list) and all(type(i) is int for i in step) for step in log
        ):
            raise LifecycleError(f"{path}: user {user}'s exposures must be a list of lists of integer items")
        exposures[int(user)] = log
    return exposures


def cmd_train(args):
    config = _build_config(args)
    prepared = prepare_data(config)
    outcome = run_lifecycle(config, prepared, collect_state=args.state_dir is not None)
    write_results(outcome.records, args.results)
    if args.state_dir is not None:
        Path(args.state_dir).mkdir(parents=True, exist_ok=True)
        for seed, (arrays, exposures) in outcome.states.items():
            ckpt, msgs, expo = _state_paths(args.state_dir, seed)
            ad.save_checkpoint(ckpt, arrays)
            ex.write_message_log(msgs, outcome.messages[seed])
            write_exposures(expo, exposures)
    for seed, counts in sorted(outcome.diagnostics.items()):
        print(f"seed {seed}: uploads={counts['uploads']} refreshes={counts['refreshes']} downloads={counts['downloads']}")
    print(f"wrote {len(outcome.records)} records to {args.results}")
    return 0


def cmd_eval(args):
    config = _build_config(args)
    seed = config.base_seed if args.seed is None else args.seed
    ckpt, msgs, expo = _state_paths(args.state_dir, seed)
    arrays = ad.load_checkpoint(ckpt)
    messages = ex.read_message_log(msgs)
    exposures = read_exposures(expo)
    records = evaluate_from_state(config, seed, prepare_data(config), arrays, messages, exposures)
    if args.results:
        write_results(records, args.results)
        print(f"wrote {len(records)} records to {args.results}")
    else:
        for r in sorted(records, key=lambda r: (r.component, r.metric, r.k)):
            label = f"{r.metric}@{r.k}" if r.k else r.metric
            print(f"{r.component:5s} {label:8s} {r.value:.4f}")
    return 0


def _gradcheck_graphs(dim, seed):
    """Small 64-bit forward graphs covering every wiring, with their params."""
    n_items = 12
    rng = np.random.default_rng(seed)
    clicked, exposed = [1, 5, 3], [2, 7]
    # two users' rows: the first's windows above, the second's shorter ones
    rows = ([clicked, [8, 0]], [exposed, [10]])
    segment = [(0, 1, 0), (0, 1, 0), (0, 2, 1), (1, 1, 1), (0, 3, 2), (1, 2, 0)]
    memory = rng.normal(scale=0.1, size=(1, dim))
    priors = [{"r_n": rng.normal(scale=0.1, size=(1, dim)), "r_t": rng.normal(scale=0.1, size=(1, dim))} for _ in range(2)]
    prior = priors[0]

    graphs = []
    for interactive in (False, True):
        wiring = "interactive" if interactive else "plain"
        slow = SlowModel(n_items, dim, np.random.default_rng(seed), interactive=interactive, head_hidden=(8, 4))
        fn = lambda m=slow: m.loss([1, 5, 3, 2], [4, 7], [1, 0], neg_memory=memory)
        graphs.append((f"slow-{wiring}", fn, slow.params()))
    table = np.random.default_rng(seed + 2).normal(scale=0.1, size=(n_items, dim))
    for interactive in (False, True):
        wiring = "interactive" if interactive else "plain"
        fast = FastModel(n_items, dim, np.random.default_rng(seed + 1), interactive, lambda i: table[i], head_hidden=(8, 4))
        fn = lambda m=fast: m.loss(clicked, exposed, [4, 9], [1, 0], prior=prior)
        graphs.append((f"fast-{wiring}", fn, fast.params()))
        # a segment of five contexts over two users' stacked windows: repeated prefix
        # lengths, and no exposures yet in some contexts
        fn = lambda m=fast: m.loss(*rows, [4, 9, 6, 11, 2, 6], [1, 0, 1, 0, 1, 1], prior=priors, prefixes=segment)
        graphs.append((f"fast-segment-{wiring}", fn, fast.params()))
    return graphs


def cmd_gradcheck(args):
    failures = 0
    for name, loss_fn, params in _gradcheck_graphs(args.dim, args.seed):
        report = ad.grad_check(loss_fn, params, tolerance=args.tolerance)
        verdict = "PASS" if report.passed else "FAIL"
        worst = max(report.per_param, key=report.per_param.get)
        print(f"{verdict} {name}: max_rel_err={report.max_rel_err:.3e} worst={worst}")
        if not report.passed:
            failures += 1
    return 1 if failures else 0


def cmd_inspect_split(args):
    config = _build_config(args)
    split, users = prepare_data(config)
    lengths = [len(us.all_items()) for us in split.users.values()]
    stats = {
        "users": len(split.users),
        "dropped_users": split.dropped_users,
        "items": len(split.retained_items),
        "vocab_size": split.vocab_size,
        "interactions": int(sum(lengths)),
        "min_sequence": int(min(lengths)),
        "max_sequence": int(max(lengths)),
        "subsampled_users": len(users),
        "fast_phase_len": len(next(iter(split.users.values())).fast),
        "test_phase_len": len(next(iter(split.users.values())).test),
    }
    print(json.dumps(stats))
    return 0


def _parser():
    parser = argparse.ArgumentParser(prog="sfrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the lifecycle and write a results CSV")
    train.add_argument("--results", metavar="FILE", default="results.csv")
    train.add_argument("--state-dir", metavar="DIR", default=None, help="persist per-seed state here")
    _add_config_flags(train)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="re-rank the test phase from saved state")
    ev.add_argument("--state-dir", metavar="DIR", required=True)
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--results", metavar="FILE", default=None)
    _add_config_flags(ev)
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    gc.add_argument("--dim", type=int, default=6)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-3)
    gc.set_defaults(func=cmd_gradcheck)

    insp = sub.add_parser("inspect-split", help="print dataset split statistics as JSON")
    _add_config_flags(insp)
    insp.set_defaults(func=cmd_inspect_split)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        print(json.dumps({"error": type(err).__name__, "detail": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
