"""Batch command-line front end.

Subcommands tie together ingestion, parameter estimation, classification,
smoothing, and evaluation. All flags are long-form; each line of a flat
key=value config file is read as a flag, which explicit flags override. Every artifact is
written with a sidecar echoing the fully resolved configuration, and all
randomness is seeded (default 0) for reproducibility.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Callable, Iterable
from typing import NoReturn

import numpy as np

# btc_classify stays bound here: the benchmark's tracer test looks it up in this module
from btckit import (  # noqa: F401
    BtcParams,
    KbtcParams,
    KernelSpec,
    WlsParams,
    btc_classify,
    btc_estimate_threshold,
    build_dictionary,
    classify_pixels,
    ensemble_residuals,
    evaluate,
    kbtc_estimate_params,
    load_dense_dataset,
    load_hsi_cube,
    recover_sparse,
    residuals,
    roc_sweep,
    smooth_and_decide,
    split_by_mask,
)
from btckit.data import _read_csv, _read_key_values, load_label_map, save_label_map, save_label_map_pgm
from btckit.errors import BtckitError, ConfigError, DataFormatError, NumericalError
from btckit.linalg import mutual_coherence, one_blas_thread

# Largest values the CLI accepts for flags that size work from their value alone, so an
# absurd value is a config error (exit 2), refused while the command line is parsed
MAX_ROC_POINTS = 1_000_000
MAX_RECOVERY_CELLS = 10_000_000  # B x N entries of the synth-recovery matrix: 80 MB of float64
MAX_GAMMA_POINTS = 1000  # one kernel Gram and beta profile each: ~3 s per point at B=200, N=960
MAX_WINDOW = 10_001  # box-filter side; the filter takes window^2 values per pixel
MAX_MEMBERS = 1000  # ensemble members: one projection, dictionary and classification each
INT64_MAX = 2**63 - 1  # the seed, and the int flags that the library checks against the data


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the batch core's chunks run on every CPU only while BLAS keeps to one thread
    with one_blas_thread():
        try:
            args = parser.parse_args(_with_config_tokens(argv, commands))
            if args.command is None:
                parser.print_help()
                return 2
            args.func(args)
            return 0
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (DataFormatError, OSError) as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 3
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 4
        except BtckitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise ConfigError, as every bad value does."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _int_in(lo: int, hi: int, odd: bool = False) -> Callable[[str], int]:
    """The argparse type of an integer flag in lo..hi, odd only with ``odd``."""
    kind = "an odd integer" if odd else "an integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi or (odd and value % 2 == 0):
            raise argparse.ArgumentTypeError(f"must be {kind} in {lo}..{hi}, got {text!r}")
        return value

    return parse


def _float_in(lo: float, hi: float, closed: bool = False) -> Callable[[str], float]:
    """The argparse type of a float flag in the open interval (lo, hi), or in [lo, hi) if ``closed``."""
    interval = f"{'[' if closed else '('}{lo:g}, {hi:g})"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (lo < value < hi or (closed and value == lo)):
            raise argparse.ArgumentTypeError(f"must be a number in {interval}, got {text!r}")
        return value

    return parse


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = _Parser(prog="btckit", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")
    count, size = _int_in(1, INT64_MAX), _int_in(1, MAX_RECOVERY_CELLS)
    # the library's ranges: the classifiers' regularization weight, and finite values above or from 0
    weight, positive = _float_in(0, 1), _float_in(0, math.inf)
    non_negative = _float_in(0, math.inf, closed=True)
    train, test = ("--train", "--train-labels"), ("--test", "--test-labels")

    def command(name, help, func, *required):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--output-dir", default=".", help="artifact directory")
        p.add_argument("--seed", type=_int_in(0, INT64_MAX), default=0)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = command("classify", "dense dataset classification with BTC or KBTC", _cmd_classify, *train, *test)
    p.add_argument("--classifier", choices=["btc", "kbtc"], default="btc")
    p.add_argument("--m", type=count, required=True)
    p.add_argument("--alpha", type=weight, default=0.01)
    p.add_argument("--gamma", type=positive, default=1.0, help="RBF width (kbtc only)")

    p = command("estimate-btc", "threshold estimation from the dictionary", _cmd_estimate_btc, *train)
    p.add_argument("--alpha", type=weight, default=0.01)
    # the M range is checked by its ends against the dictionary
    p.add_argument("--m-min", type=_int_in(-INT64_MAX, INT64_MAX), default=2)
    p.add_argument("--m-max", type=_int_in(-INT64_MAX, INT64_MAX), default=0, help="default B-1")

    p = command("estimate-kbtc", "two-stage gamma and threshold estimation", _cmd_estimate_kbtc, *train)
    p.add_argument("--alpha", type=weight, default=1e-9)
    p.add_argument("--gamma-grid", default="2^-10..2^1",
                   help=f"b^lo..b^hi range or comma list, at most {MAX_GAMMA_POINTS} points")

    p = command("classify-hsi", "spatial-spectral cube classification", _cmd_classify_hsi)
    p.add_argument("--cube-header", required=True)
    p.add_argument("--cube-raw", required=True)
    p.add_argument("--gt", required=True, help="ground truth label map CSV")
    p.add_argument("--train-mask", required=True, help="training mask label map CSV")
    p.add_argument("--classifier", choices=["btc", "kbtc"], default="btc")
    p.add_argument("--m", type=count, required=True)
    p.add_argument("--alpha", type=weight, default=1e-10)
    p.add_argument("--gamma", type=positive, default=1.0)
    p.add_argument("--smoothing", choices=["none", "box", "wls"], default="wls")
    p.add_argument("--window", type=_int_in(1, MAX_WINDOW, odd=True), default=5)
    p.add_argument("--wls-lambda", type=non_negative, default=0.4)
    p.add_argument("--wls-alpha", type=positive, default=0.9)

    p = command("ensemble", "BTC-n with very sparse random projections", _cmd_ensemble, *train, *test)
    p.add_argument("--n", type=_int_in(1, MAX_MEMBERS), default=5)
    p.add_argument("--b", type=count, required=True, help="projected dimension")
    p.add_argument("--s", type=count, default=3, help="projection sparsity")
    p.add_argument("--m", type=count, required=True)
    p.add_argument("--alpha", type=weight, default=0.01)

    p = command("roc", "ROC sweep over rejection margins", _cmd_roc)
    p.add_argument("--valid-margins", required=True, help="one margin per line")
    p.add_argument("--invalid-margins", required=True)
    p.add_argument("--points", type=_int_in(1, MAX_ROC_POINTS), default=1001, help="thresholds")

    p = command("synth-recovery", "Gaussian sparse recovery demo", _cmd_synth_recovery)
    p.add_argument("--n", type=size, default=512, help=f"atoms; B x N <= {MAX_RECOVERY_CELLS}")
    p.add_argument("--b", type=size, default=170, help=f"measurements; B x N <= {MAX_RECOVERY_CELLS}")
    p.add_argument("--k", type=size, default=15, help="nonzeros, at most N")
    # the M x M Gram of the support holds at most MAX_RECOVERY_CELLS entries
    p.add_argument("--m", type=_int_in(1, math.isqrt(MAX_RECOVERY_CELLS)), default=120)
    p.add_argument("--alpha", type=non_negative, default=1e-4)

    command("coherence", "mutual coherence of a dictionary", _cmd_coherence, *train)
    return parser, sub.choices


def _with_config_tokens(argv: list[str], commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """``argv`` with each ``key=value`` line of its ``--config`` file as a ``--key=value`` token.

    The tokens go right after the subcommand, so the parser checks them as it
    checks flags, and a flag given explicitly, coming later, overrides them. A
    key that is not one of the subcommand's flags is refused, naming the file.
    """
    if not argv or argv[0] not in commands:
        return argv
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if not path:
        return argv
    tokens, flags = [], commands[argv[0]]._option_string_actions
    for key, value in _read_key_values(path, ConfigError):
        if key == "config":
            raise ConfigError(f"{path}: a config file cannot name another")
        if f"--{key}" not in flags:
            raise ConfigError(f"{path}: unknown key {key!r}")
        tokens.append(f"--{key}={value}")
    return [argv[0], *tokens, *argv[1:]]


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_artifact(args: argparse.Namespace, name: str, content: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    path = os.path.join(args.output_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    _write_sidecar(args, path)
    return path


def _write_lines(args: argparse.Namespace, name: str, lines: Iterable[object]) -> None:
    _write_artifact(args, name, "".join(f"{line}\n" for line in lines))


def _write_sidecar(args: argparse.Namespace, artifact_path: str) -> None:
    lines = [f"{k}={v}" for k, v in _resolved_config(args).items()]
    with open(artifact_path + ".config.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_gamma_grid(text: str) -> list[float]:
    """Parse '2^-10..2^1' ranges or comma lists of floats / 2^k terms, at most MAX_GAMMA_POINTS."""

    def term(t: str) -> float:
        t = t.strip()
        if "^" in t:
            base, _, exp = t.partition("^")
            return float(base) ** int(exp)
        return float(t)

    try:
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            if "^" not in lo_s or "^" not in hi_s:
                raise ConfigError("range grids must use base^exp endpoints, e.g. 2^-10..2^1")
            base = float(lo_s.partition("^")[0])
            lo = int(lo_s.partition("^")[2])
            hi = int(hi_s.partition("^")[2])
            base**lo, base**hi  # an end that overflows makes the grid malformed, at any length
            points, value = range(lo, hi + 1), lambda e: base**e
        else:
            points, value = [t for t in text.split(",") if t.strip()], term
        if points[MAX_GAMMA_POINTS:]:  # a range slices lazily, whatever its length
            raise ConfigError(f"--gamma-grid must have at most {MAX_GAMMA_POINTS} points")
        return [value(p) for p in points]
    except (ValueError, ArithmeticError) as exc:  # ArithmeticError: 2^5000, 0^-1
        raise ConfigError(f"malformed gamma grid {text!r}") from exc


def _classifier_params(args: argparse.Namespace) -> BtcParams:
    """The params of ``--classifier``: BTC's, or KBTC's with the RBF kernel of width ``--gamma``."""
    if args.classifier == "btc":
        return BtcParams(m=args.m, alpha=args.alpha)
    return KbtcParams(m=args.m, alpha=args.alpha, spec=KernelSpec(kind="rbf", gamma=args.gamma))


def _cmd_classify(args: argparse.Namespace) -> None:
    train, train_labels = load_dense_dataset(args.train, args.train_labels)
    test, test_labels = load_dense_dataset(args.test, args.test_labels)
    start = time.perf_counter()

    params = _classifier_params(args)
    dictionary = build_dictionary(train, train_labels, norm_mode=params.norm_mode)
    del train  # the dictionary holds its own copy
    decided = np.argmin(residuals(dictionary, test, params), axis=1)
    predictions = np.asarray(dictionary.original_labels)[decided]
    _write_predictions(args, predictions, test_labels, time.perf_counter() - start)


def _write_predictions(
    args: argparse.Namespace, predictions: np.ndarray, test_labels: np.ndarray, elapsed: float
) -> None:
    _write_lines(args, "predictions.csv", predictions)
    _write_report(args, predictions, test_labels, elapsed)


def _write_report(
    args: argparse.Namespace, predictions: np.ndarray, test_labels: np.ndarray, elapsed: float, name: str = ""
) -> None:
    """Score the predictions: report[_name].txt and .json, and their scores on stdout after "name: "."""
    report = evaluate(predictions, test_labels, elapsed_s=elapsed, config=_resolved_config(args))
    suffix, prefix = (f"_{name}", f"{name}: ") if name else ("", "")
    _write_artifact(args, f"report{suffix}.txt", report.to_text())
    _write_artifact(args, f"report{suffix}.json", report.to_json())
    print(f"{prefix}OA={report.oa:.4f} AA={report.aa:.4f} kappa={report.kappa:.4f}")


def _cmd_estimate_btc(args: argparse.Namespace) -> None:
    train, labels = load_dense_dataset(args.train, args.train_labels)
    dictionary = build_dictionary(train, labels, norm_mode=BtcParams.norm_mode)
    m_max = args.m_max if args.m_max else dictionary.n_features - 1
    m_hat, profile = btc_estimate_threshold(
        dictionary, args.alpha, range(args.m_min, m_max + 1)
    )
    _write_lines(args, "beta_profile.csv", ["m,beta_avg", *(f"{m},{b:.10f}" for m, b in profile)])
    print(f"M_hat={m_hat}")


def _cmd_estimate_kbtc(args: argparse.Namespace) -> None:
    train, labels = load_dense_dataset(args.train, args.train_labels)
    dictionary = build_dictionary(train, labels, norm_mode=KbtcParams.norm_mode)
    grid = _parse_gamma_grid(args.gamma_grid)
    gamma_hat, m_hat, gamma_profile, m_profile = kbtc_estimate_params(dictionary, args.alpha, grid)
    rows = (f"{g:.10g},{b:.10f}" for g, b in gamma_profile)
    _write_lines(args, "gamma_profile.csv", ["gamma,beta_avg", *rows])
    _write_lines(args, "m_profile.csv", ["m,beta_avg", *(f"{m},{b:.10f}" for m, b in m_profile)])
    print(f"gamma_hat={gamma_hat:.10g} M_hat={m_hat}")


def _cmd_classify_hsi(args: argparse.Namespace) -> None:
    cube = load_hsi_cube(args.cube_header, args.cube_raw)
    gt = load_label_map(args.gt)
    mask = load_label_map(args.train_mask)
    train, train_labels, test_labels, test_rc = split_by_mask(cube, gt, mask)
    start = time.perf_counter()

    params = _classifier_params(args)
    dictionary = build_dictionary(train, train_labels, norm_mode=params.norm_mode)
    del train  # the dictionary holds its own copy

    wls = WlsParams(lam=args.wls_lambda, alpha_wls=args.wls_alpha)
    masked, pixelwise, guidance = classify_pixels(cube, dictionary, params, args.smoothing)
    # the class maps hold dense ids 1..C; they are saved and scored as input labels
    original = np.asarray(dictionary.original_labels)
    # nothing left refers to the cube: dropping it here unmaps it before the
    # smoothing, whose sparse LU factor sets the command's peak memory
    del cube, dictionary
    final = original[smooth_and_decide(masked, guidance, args.smoothing, args.window, wls) - 1]
    pixelwise = original[pixelwise - 1]
    elapsed = time.perf_counter() - start

    os.makedirs(args.output_dir, exist_ok=True)
    for name, label_map in (("classmap_pixelwise", pixelwise), ("classmap_smoothed", final)):
        csv_path = os.path.join(args.output_dir, name + ".csv")
        save_label_map(label_map, csv_path)
        _write_sidecar(args, csv_path)
        pgm_path = os.path.join(args.output_dir, name + ".pgm")
        save_label_map_pgm(label_map, pgm_path, pgm_path + ".classes.txt")
        _write_sidecar(args, pgm_path)

    # scored on the test pixels only: labeled and outside the training mask
    rows, cols = test_rc.T
    for name, label_map in (("pixelwise", pixelwise), ("smoothed", final)):
        _write_report(args, label_map[rows, cols], test_labels, elapsed, name)


def _cmd_ensemble(args: argparse.Namespace) -> None:
    train, train_labels = load_dense_dataset(args.train, args.train_labels)
    test, test_labels = load_dense_dataset(args.test, args.test_labels)
    params = BtcParams(m=args.m, alpha=args.alpha)
    start = time.perf_counter()

    fused = ensemble_residuals(train, train_labels, test, args.n, params, args.b, args.s, args.seed)
    predictions = np.unique(train_labels)[np.argmin(fused, axis=1)]
    _write_predictions(args, predictions, test_labels, time.perf_counter() - start)


def _load_margins(path: str) -> np.ndarray:
    values = _read_csv(path, np.float64, "non-numeric margin", width=1).ravel()
    if not values.size:
        raise DataFormatError(f"{path}: no margins")
    finite = np.isfinite(values)
    if not finite.all():
        raise DataFormatError(f"{path}: non-finite margin at index {int(np.argmin(finite))}")
    return values


def _cmd_roc(args: argparse.Namespace) -> None:
    valid = _load_margins(args.valid_margins)
    invalid = _load_margins(args.invalid_margins)
    taus = np.linspace(0.0, 1.0, args.points + 2)[1:-1]
    curve = roc_sweep(valid, invalid, taus)
    rows = (f"{t:.6f},{tpr:.6f},{fpr:.6f}" for t, tpr, fpr in curve)
    _write_lines(args, "roc.csv", ["tau,tpr,fpr", *rows])
    print(f"wrote {len(curve)} ROC points")


def _cmd_synth_recovery(args: argparse.Namespace) -> None:
    if args.k > args.n:
        raise ConfigError(f"need k <= n, got k={args.k}, n={args.n}")
    if args.b * args.n > MAX_RECOVERY_CELLS:
        raise ConfigError(f"--b x --n must be <= {MAX_RECOVERY_CELLS}, got {args.b} x {args.n}")
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.b, args.n))
    A /= np.linalg.norm(A, axis=0)
    x = np.zeros(args.n)
    support = rng.choice(args.n, size=args.k, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=args.k)
    y = A @ x
    x_hat = recover_sparse(A, y, args.m, args.alpha)
    rows = (f"{t:.10f},{r:.10f}" for t, r in zip(x, x_hat))
    _write_lines(args, "recovery.csv", ["true,recovered", *rows])
    rel_err = np.linalg.norm(x_hat - x) / np.linalg.norm(x)
    print(f"relative_l2_error={rel_err:.6f}")


def _cmd_coherence(args: argparse.Namespace) -> None:
    train, labels = load_dense_dataset(args.train, args.train_labels)
    dictionary = build_dictionary(train, labels, norm_mode=BtcParams.norm_mode)
    print(f"mu={mutual_coherence(dictionary):.10f}")


if __name__ == "__main__":
    sys.exit(main())
