"""Command-line interface and bit-stable output serialization.

Subcommands: coeffs, evolve, events, sweep, validate, presets.  A run is
configured by a JSON document with CLI flags overriding file values; a
command reads exactly the settings it has flags for, and a key outside them
is rejected by name.  Every output file carries a metadata header recording
every setting the command read, resolved, the code version and the
tolerance choices, so a figure run can be reproduced from its own output.

Every float in a CSV is written as ``'%.17g' % v``.  Trajectory and curve
bodies (:class:`FloatRows`) are formatted about 5,600 cells at a time by a
numpy kernel whose bytes equal that conversion, cell by cell.  Exact zeros
(three of the eleven trajectory columns of an X state, and concurrence
after sudden death) never enter its digit arithmetic, and a cell it cannot
prove exact goes through ``%.17g`` itself.  A metadata value that holds a line
break is written as JSON, so every line above the header starts with
``#``.

Exit status: 0 success, 1 configuration/validation error (a malformed
argument or a JSON field of the wrong type included), 2 numerical failure
(rates that overflow or are not finite, a propagated row that is not a
state, a failed sweep point, or an oracle component that fails its check).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import inspect
import io
import json
import numbers
import os
import shutil
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import coefficients as co
from . import correlations as fc
from . import dynamics as dy
from . import entanglement as en
from . import sweeps as sw

OUTDIR_ENV = "MIRRORATOMS_OUTDIR"

# the RunConfig fields that make up its PhysicalConfig, in from_ratios order
_PHYSICAL_KEYS = ("a_over_omega", "omega_L", "y_over_L", "alignment", "d1",
                  "d2")
_RATIO_DEFAULTS = inspect.signature(co.PhysicalConfig.from_ratios).parameters


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors,
    not argparse's exit 2, which here means a numerical failure."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run (physical config + run controls)."""

    a_over_omega: float = 0.5
    omega_L: float = 1.0
    y_over_L: float = 0.5
    alignment: str = "parallel"
    d1: tuple = _RATIO_DEFAULTS["d1"].default
    d2: tuple = _RATIO_DEFAULTS["d2"].default
    initial_state: object = sw.SweepSpec.initial_state
    horizon: float = 20.0
    sample_step: float = sw.SweepSpec.sample_step
    output_path: str = ""
    output_format: str = "csv"
    include_free_space_companion: bool = False
    oracle_validation: bool = False

    def __post_init__(self):
        # JSON true/false are Python ints and a JSON string passes float(),
        # so a flag must be a bool, a number a real number and a path a str
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            parts = {"float": [value], "tuple": value if isinstance(
                value, (list, tuple)) else [None]}.get(f.type, [])
            kind = {"bool": bool, "str": str}.get(f.type, object)
            if not isinstance(value, kind) or not all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool)
                    for x in parts):
                raise ConfigError(f"{f.name} must be " + {
                    "bool": "true or false", "str": "a string",
                    "float": "a number", "tuple": "a list of numbers"}[f.type])
        for key in ("d1", "d2"):
            object.__setattr__(self, key, tuple(map(float, getattr(self, key))))
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format must be 'csv' or 'json'")
        # from_dict raises their ValueErrors as ConfigErrors
        en.scan_size(self.horizon, self.sample_step)
        self.physical()
        try:
            self.initial()
        except ValueError as exc:
            raise ConfigError(f"invalid initial_state: {exc}") from exc

    @classmethod
    def from_dict(cls, data, keys=None):
        """``data`` may set the fields ``keys``, by default every field."""
        keys = keys or [f.name for f in dataclasses.fields(cls)]
        unknown = set(data) - set(keys)
        if unknown:
            raise ConfigError(
                f"unknown config key(s): {', '.join(sorted(unknown))}")
        clean = dict(data)
        try:
            if "initial_state" in clean and not isinstance(
                    clean["initial_state"], str):
                clean["initial_state"] = _parse_matrix(clean["initial_state"])
            return cls(**clean)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["d1"] = list(self.d1)
        d["d2"] = list(self.d2)
        if not isinstance(self.initial_state, str):
            d["initial_state"] = _complex_pairs(self.initial_state)
        return d

    def physical(self):
        return co.PhysicalConfig.from_ratios(
            *(getattr(self, key) for key in _PHYSICAL_KEYS))

    def initial(self):
        return dy.XState.resolve(self.initial_state)

    def trajectory(self, include_boundary=True):
        """The run's scan, with the boundary or, as its companion, without."""
        gen = dy.build_generator(co.assemble(
            self.physical(), include_boundary=include_boundary))
        return en.scan_trajectory(gen, self.initial(), self.horizon,
                                  self.sample_step)


def _parse_matrix(obj):
    """Inline 4x4 matrix: entries are numbers or [re, im] pairs."""
    msg = ("inline initial_state must be a 4x4 matrix of numbers or "
           "[re, im] pairs")
    try:
        m = np.array([[complex(z[0], z[1]) if isinstance(z, (list, tuple))
                       else complex(z) for z in row] for row in obj],
                     dtype=complex)
    except (ValueError, TypeError, IndexError) as exc:  # ragged or not numbers
        raise ConfigError(msg) from exc
    if m.shape != (4, 4):
        raise ConfigError(msg)
    return m


def _complex_pairs(matrix):
    """A complex matrix as nested lists of [re, im] pairs, for JSON."""
    return [[[z.real, z.imag] for z in row]
            for row in np.asarray(matrix, dtype=complex).tolist()]


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _metadata(fields):
    """The metadata of an output: the tool and its version, then ``fields``."""
    return {"tool": "mirroratoms", "version": __version__, **fields}


@dataclass(frozen=True)
class FloatRows:
    """A block of CSV body rows: the cells ``lead``, then one row of the
    2-D float array ``values``, on every line."""

    values: np.ndarray
    lead: tuple = ()


# cells formatted per write, a lead's 32-byte records counted as cells:
# bounds the kernel's buffers (about 0.2 MB) however long the body is, and
# holds 512 rows of an 11-column trajectory but 1,408 of a 3-column curve
# with a one-record lead, so narrow bodies take fewer, larger blocks
_CELLS_PER_WRITE = 5632

# ---------------------------------------------------------------------
# '%.17g' for a whole block of floats at once
#
# An exact zero never enters the digit arithmetic: +0.0 is written "0" and
# -0.0 "-0".  A nonzero cell in the fast range becomes the 17-digit integer
# d = round(|v| * 10**(16 - k)), k = floor(log10 |v|), and is laid out from
# d's digits and k.  The product is taken in double-double arithmetic: a
# table of powers of ten split as ph + pl, and Dekker's exact two-product
# (Numer. Math. 18, 224 (1971)).  Its error is below 1e-13 on a value near
# 1e17, so rounding to the nearest integer is exact unless the fraction
# lies within _TIE_GUARD of one half.  A cell the kernel cannot prove is
# formatted by '%.17g' itself: non-finite, outside the fast range, that
# close to a rounding tie, or with an integer part outside [1e16, 1e17)
# because log10 put k one off.  Each nonzero cell gets a record of fixed
# byte slots, and a slot the cell does not use holds 0xFF, a byte UTF-8
# text never contains.  A line gathers one record per cell, its own or that
# of its signed zero, and deleting the 0xFF bytes leaves '%.17g' of every
# cell.
# ---------------------------------------------------------------------

# the range keeps every partial product of the two-product far from
# overflow and underflow
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_POW_LO, _POW_HI = 16 - 251, 16 + 251     # 10**(16 - k), with k one off
_SPLIT = 134217729.0                      # 2**27 + 1, Dekker's splitter
_TIE_GUARD = 1e-6
_PAD = 0xFF
# a cell's slots: sign, "0.000" of 1e-4 <= |v| < 1, 18 digit slots that
# hold the 17 digits and the decimal point, "e", exponent sign, 3 exponent
# digits, then the cell's separator, the newline of a line's last cell and
# a pad slot: 32 slots, a size numpy's take copies fastest
_SIGN, _LEAD0, _DIGITS, _EXP = 0, 1, 6, 24
_SEP, _WIDTH = 29, 32
_DIGIT_SLOTS = np.arange(18, dtype=np.int8)[:, None]


@functools.cache
def _g17_tables():
    """Powers of ten 10**n, n in [_POW_LO, _POW_HI], as the double nearest
    to each and the double nearest to its remainder, both from exact
    integer arithmetic (int / int is correctly rounded), with the nearest
    double also split in halves for the two-product; the ASCII digits of
    0..9999 as four rows; and, for each of the four digit groups that
    follow d's first digit, the count of d's significant digits up to and
    including the group's last nonzero digit (0 for a zero group, except
    that the first digit alone counts 1).  Built by the first CSV body,
    not on import."""
    ph, pl = [], []
    for n in range(_POW_LO, _POW_HI + 1):
        if n >= 0:
            p = 10 ** n
            ph.append(float(p))
            pl.append(float(p - int(ph[-1])))
        else:
            q = 10 ** -n
            ph.append(1 / q)
            num, den = ph[-1].as_integer_ratio()
            pl.append((den - num * q) / (den * q))
    ph, pl = np.array(ph), np.array(pl)
    c = _SPLIT * ph
    ph_hi = c - (c - ph)
    i = np.arange(10000)
    digits4 = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10])
    trailing0 = sum(i % 10**t == 0 for t in (1, 2, 3))
    group = np.arange(4)[:, None]
    tables = (ph, ph_hi, ph - ph_hi, pl,
              digits4.astype(np.uint8) + ord("0"),
              np.where(i > 0, 5 + 4 * group - trailing0,
                       group == 0).astype(np.uint8))
    for t in tables:
        t.flags.writeable = False
    return tables


def _slot(cond, char):
    """``char`` where ``cond``, else the pad byte."""
    return (cond.view(np.uint8) - 1) | char


def _g17_block(values, lead=b""):
    """The CSV lines of a 2-D float block, cells as ``'%.17g' % v``,
    each line starting with the bytes ``lead``."""
    ph, ph_hi, ph_lo, pl, digits4, nsig4 = _g17_tables()
    rows, cols = values.shape
    n = rows * cols
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(n)
    # the m nonzero cells (NaN included) take the digit arithmetic below
    nonzero = v != 0
    w = v[nonzero]
    m = len(w)
    a = np.abs(w)
    x = np.fmin(np.fmax(a, _FAST_MIN), _FAST_MAX)
    k = np.floor(np.log10(x)).astype(np.intp)
    p = (16 - _POW_LO) - k
    # hi + lo = x * 10**(16 - k): Dekker's two-product with ph, then x * pl
    b_hi, b_lo = ph_hi.take(p), ph_lo.take(p)
    c = _SPLIT * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    hi = x * ph.take(p)
    lo = ((x_hi * b_hi - hi) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo
    lo += x * pl.take(p)
    # hi >= 1e16 > 2**53 is an integer, so d + r splits hi + lo exactly
    floor_lo = np.floor(lo)
    r = lo - floor_lo
    d = hi.astype(np.int64)
    d += floor_lo.astype(np.int64)
    exact = ((x == a) & (d >= 10**16) & (d < 10**17)
             & (np.abs(r - 0.5) >= _TIE_GUARD))
    d += r > 0.5
    carry = d == 10**17
    d -= carry * (9 * 10**16)
    k += carry

    # the digits of d, one row each, between two pad rows
    digits = np.empty((19, m), np.uint8)
    digits[0] = digits[18] = _PAD
    top = d // 10**8
    low8 = (d - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    first = top // 10**8
    mid8 = top - first * 10**8
    g1, g3 = mid8 // 10**4, low8 // 10**4
    groups = (g1, mid8 - g1 * 10**4, g3, low8 - g3 * 10**4)
    digits[1] = first + ord("0")
    nsig = np.zeros(m, np.uint8)
    for j, g in enumerate(groups):
        digits[2 + 4 * j:6 + 4 * j] = digits4.take(g, axis=1)
        np.maximum(nsig, nsig4[j].take(g), out=nsig)

    # %g: fixed notation for -4 <= k < 17, else d.ddde+XX
    sci = (k < -4) | (k > 16)
    below_one = (k < 0) & (k >= -4)
    point = np.where(sci, 0, k)           # the digit the point follows
    has_point = (nsig > point + 1) & ~below_one
    after = np.where(has_point, point + 1, 99).astype(np.int8)
    shown = np.where(below_one | sci, nsig, np.maximum(nsig, k + 1))
    shown += has_point

    # a cell's slots are a record: one per nonzero cell, "0", "-0", then
    # the lead in records of its own
    q = -(-len(lead) // _WIDTH)
    record = np.full((m + 2 + q, _WIDTH), _PAD, np.uint8)
    slots = record.T
    slots[_SIGN, :m] = _slot(np.signbit(w), ord("-"))
    slots[_SIGN, m + 1] = ord("-")
    slots[_LEAD0, :m] = _slot(below_one, ord("0"))
    slots[_LEAD0, m:m + 2] = ord("0")
    slots[_LEAD0 + 1, :m] = _slot(below_one, ord("."))
    for i in range(1, 4):
        slots[_LEAD0 + 1 + i, :m] = _slot(below_one & (k <= -1 - i), ord("0"))
    # digit slot s holds digit s before the point and digit s - 1 after it
    body = (_DIGIT_SLOTS < after).view(np.uint8)
    np.negative(body, out=body)
    body &= digits[1:19] ^ digits[0:18]
    body ^= digits[0:18]
    body |= (_DIGIT_SLOTS < shown.astype(np.int8)).view(np.uint8) - 1
    slots[_DIGITS:_EXP, :m] = body
    cells = np.flatnonzero(has_point)
    record[cells, _DIGITS + after[cells]] = ord(".")
    cells = np.flatnonzero(sci)
    e = np.abs(k[cells])
    slots[_EXP, cells] = ord("e")
    slots[_EXP + 1, cells] = np.where(k[cells] < 0, ord("-"), ord("+"))
    slots[_EXP + 2, cells] = _slot(e >= 100, 0) | e // 100 + ord("0")
    slots[_EXP + 3, cells] = e // 10 % 10 + ord("0")
    slots[_EXP + 4, cells] = e % 10 + ord("0")
    slots[_SEP, :m + 2] = ord(",")

    slow = np.flatnonzero(~exact)
    if len(slow):
        text = b"".join(("%.17g" % f).encode().ljust(_SEP, b"\xff")
                        for f in w[slow].tolist())
        record[slow, :_SEP] = np.frombuffer(text, np.uint8).reshape(-1, _SEP)
    record[m + 2:].reshape(-1)[:len(lead)] = np.frombuffer(lead, np.uint8)

    # a line copies its lead's records, then each cell's own record or
    # that of its signed zero
    column = m + np.signbit(v)
    column[nonzero] = np.arange(m)
    index = np.empty((rows, q + cols), np.intp)
    index[:, :q] = np.arange(m + 2, m + 2 + q)
    index[:, q:] = column.reshape(rows, cols)
    line = record.take(index, axis=0)
    line[:, -1, _SEP:_SEP + 2] = (ord("\r"), ord("\n"))
    return line.tobytes().translate(None, b"\xff").decode("utf-8",
                                                          "surrogatepass")


def _write_float_rows(fh, block):
    """Write a :class:`FloatRows` block: the bytes of ``csv.writer.writerow``
    on each row, its floats as ``_fmt`` writes them (``%.17g``)."""
    lead = b""
    if block.lead:
        buf = io.StringIO()
        # a trailing empty cell leaves the lead's closing delimiter
        csv.writer(buf).writerow([_fmt(v) for v in block.lead] + [""])
        lead = buf.getvalue().removesuffix("\r\n").encode("utf-8",
                                                          "surrogatepass")
    width = -(-len(lead) // _WIDTH) + block.values.shape[1]
    step = max(_CELLS_PER_WRITE // max(width, 1), 1)
    for start in range(0, len(block.values), step):
        fh.write(_g17_block(block.values[start:start + step], lead))


def _staging_path(path):
    """The sibling an output is written to before it replaces ``path``;
    None for an existing target that is not a regular file, such as a
    device or a symbolic link, which is written in place."""
    path = Path(path)
    if os.path.lexists(path) and not stat.S_ISREG(path.lstat().st_mode):
        return None
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _open_output(path, **kwargs):
    """``open(path, "w")`` as a context; an OSError of the open, a write or
    the close is a ConfigError.  An absent or regular target is written to
    its staging sibling, which replaces it only once every write has
    succeeded, so a failed write leaves the target as it was."""
    staging = _staging_path(path)
    try:
        with open(staging or path, "w", **kwargs) as fh:
            yield fh
        if staging:
            # the replaced file keeps its permission bits
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(path, staging)
            os.replace(staging, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if staging:
            staging.unlink(missing_ok=True)


def _check_writable(*paths, make_dir=True):
    """Make each path's directory (if ``make_dir``) and check that the path
    and its staging sibling can be opened for writing, leaving no new file:
    a run fails before it computes anything."""
    for path in paths:
        try:
            if make_dir:
                path.parent.mkdir(parents=True, exist_ok=True)
            for target in filter(None, (path, _staging_path(path))):
                existed = target.exists()
                with open(target, "a"):
                    pass
                if not existed:
                    target.unlink()
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _meta_value(value):
    """A metadata value on its ``#`` line: lists, dicts and strings that
    ``str.splitlines`` would break as JSON, so the value stays on that one
    line."""
    if isinstance(value, (list, dict)) or (
            isinstance(value, str) and "".join(value.splitlines()) != value):
        return json.dumps(value)
    return _fmt(value)


def write_csv(path, meta, header, rows):
    """``#`` metadata lines, then the header and rows as the csv module
    writes them, floats as ``%.17g``.  Each item of ``rows`` is a row of
    cells of any type or a :class:`FloatRows` block."""
    with _open_output(path, newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {_meta_value(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, FloatRows):
                _write_float_rows(fh, row)
            else:
                writer.writerow([_fmt(v) for v in row])


def write_json(path, meta, data):
    with _open_output(path) as fh:
        json.dump({"metadata": meta, "data": data}, fh, indent=2)
        fh.write("\n")


def _out_path(config, default_name):
    """The run's output file, checked to be writable; only the directory of
    the default path is made."""
    if config.output_path:
        path = Path(config.output_path)
    else:
        path = (Path(os.environ.get(OUTDIR_ENV, "."))
                / f"{default_name}.{config.output_format}")
    _check_writable(path, make_dir=not config.output_path)
    return path


def _read_json_object(path, what):
    """The JSON object in a config or spec file; ConfigError otherwise."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return data


def _load_config(args):
    """The run's :class:`RunConfig`, from the config file, if any, with every
    flag given laid over it; metadata that records the fields its flags set
    by dest (the fields the command reads, and all a file may set); and the
    fields that the file or a flag set, as a set."""
    keys = [f.name for f in dataclasses.fields(RunConfig)
            if f.name in vars(args)]
    data = _read_json_object(args.config, "config") if args.config else {}
    flags = {key: getattr(args, key) for key in keys}
    try:
        for key in ("d1", "d2"):
            text = flags.pop(key)
            if text:
                flags[key] = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"invalid dipole flag: {exc}") from exc
    data.update((key, value) for key, value in flags.items()
                if value is not None)
    config = RunConfig.from_dict(data, keys)
    resolved = config.to_dict()
    return config, _metadata({key: resolved[key] for key in keys}), set(data)


def _add_physics_flags(p, scan=True):
    """``scan`` adds the initial state and time grid of a trajectory."""
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--a", type=float, dest="a_over_omega", help="a/omega")
    p.add_argument("--omega-l", type=float, dest="omega_L", help="omega * L")
    p.add_argument("--y-over-l", type=float, dest="y_over_L", help="y / L")
    p.add_argument("--alignment", choices=("parallel", "vertical"))
    p.add_argument("--d1", help="dipole 1 components, e.g. 1,0,0")
    p.add_argument("--d2", help="dipole 2 components")
    if scan:
        p.add_argument("--initial-state", help="initial state preset name")
        p.add_argument("--horizon", type=float,
                       help="scan horizon in Gamma0*tau")
        p.add_argument("--sample-step", type=float)
    p.add_argument("--output", dest="output_path", help="output file path")
    p.add_argument("--format", choices=("csv", "json"), dest="output_format")


def cmd_coeffs(args):
    config, meta, given = _load_config(args)
    if "output_format" in given and not config.output_path:
        raise ConfigError("output_format (--format) needs output_path "
                          "(--output): coeffs writes a file only there")
    path = _out_path(config, "coeffs") if config.output_path else None
    cfg = config.physical()
    cs = co.assemble(cfg)
    lines = {"A1": cs.A1, "A2": cs.A2, "A3": cs.A3,
             "B1": cs.B1, "B2": cs.B2, "B3": cs.B3}
    print("coefficients (units of Gamma_0):")
    for k, v in lines.items():
        print(f"  {k} = {_fmt(v)}")
    extra = {}
    if args.expansion:
        nb = co.near_boundary_expansion(cfg)
        extra["expansion"] = {"A1": nb.A1, "A2": nb.A2, "A3": nb.A3,
                              "B1": nb.B1, "B2": nb.B2, "B3": nb.B3}
        print("near-boundary expansion:")
        for k, v in extra["expansion"].items():
            print(f"  {k} = {_fmt(v)}")
    if config.oracle_validation:
        status, report = _oracle_report(cfg)
        extra["oracle"] = report
        print(f"oracle max relative error: {_fmt(report['max_rel_error'])}")
        if status != 0:
            print("oracle validation FAILED: " + "; ".join(report["failures"]),
                  file=sys.stderr)
            return status
    if path:
        if config.output_format == "json":
            write_json(path, meta, {"coefficients": lines, **extra})
        else:
            write_csv(path, meta, ["coefficient", "value"],
                      [[k, v] for k, v in lines.items()])
    return 0


def _trajectory_rows(config):
    traj = config.trajectory()
    columns = [traj.times, traj.vectors, traj.rho_ge.real, traj.rho_ge.imag,
               en.concurrence_curve(traj)]
    if config.include_free_space_companion:
        columns.append(en.concurrence_curve(
            config.trajectory(include_boundary=False)))
    return traj, np.column_stack(columns)


_TRAJ_HEADER = ["gamma0_tau", "pG", "pE", "pA", "pS", "re_rhoAS", "im_rhoAS",
                "re_rhoGE", "im_rhoGE", "concurrence"]


def cmd_evolve(args):
    config, meta, _ = _load_config(args)
    path = _out_path(config, "trajectory")
    traj, rows = _trajectory_rows(config)
    header = list(_TRAJ_HEADER)
    if config.include_free_space_companion:
        header.append("free_concurrence")
    meta["propagation"] = traj.method
    if config.output_format == "json":
        write_json(path, meta, {"columns": header, "rows": rows.tolist()})
    else:
        write_csv(path, meta, header, [FloatRows(rows)])
    print(f"wrote {path}")
    return 0


def cmd_events(args):
    config, meta, _ = _load_config(args)
    path = _out_path(config, "events")
    ev = en.analyze_events(config.trajectory())
    report = {
        "death_times": list(ev.death_times),
        "birth_times": list(ev.birth_times),
        "revival_intervals": [list(p) for p in ev.revival_intervals],
        "max_c": ev.max_c,
        "max_c_time": ev.max_c_time,
        "truncated": ev.truncated,
        "horizon": ev.horizon,
    }
    meta["refine_tol"] = en.REFINE_TOL
    if config.output_format == "csv":
        rows = ([["death", t] for t in ev.death_times]
                + [["birth", t] for t in ev.birth_times]
                + [["max_c", ev.max_c], ["max_c_time", ev.max_c_time],
                   ["truncated", ev.truncated]])
        write_csv(path, meta, ["event", "value"], rows)
    else:
        write_json(path, meta, report)
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0


def cmd_sweep(args):
    if args.preset is not None:
        presets = sw.figure_presets()
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              "see 'presets'")
        preset = presets[args.preset]
        specs = preset.specs
        name = args.preset
    else:
        if args.spec is None:
            raise ConfigError("either --preset or --spec is required")
        raw = _read_json_object(args.spec, "spec")
        specs = [_spec_from_dict(raw)]
        name = specs[0].label

    outdir = Path(args.output or os.environ.get(OUTDIR_ENV, "."))
    fmt = args.format or "csv"
    summary_path = outdir / f"{name}_summary.{fmt}"
    curve_path = outdir / f"{name}_curves.{fmt}"
    _check_writable(summary_path, curve_path)

    all_rows = []
    curve_blocks = []
    for spec in specs:
        result = sw.run_sweep(spec)
        all_rows.extend(result.rows)
        for idx, curve in result.curves.items():
            columns = [curve["times"], curve["concurrence"]]
            if "free_concurrence" in curve:
                columns.append(curve["free_concurrence"])
            curve_blocks.append(FloatRows(
                np.column_stack(columns),
                lead=(spec.label, result.rows[idx]["axis_value"])))

    header = sorted({k for row in all_rows for k in row})
    meta = _metadata({"preset": name, "horizon": specs[0].span,
                      "sample_step": specs[0].sample_step,
                      "specs": [_spec_record(spec) for spec in specs]})
    if specs[0].axis == "time":
        del meta["sample_step"]    # a time axis samples its own values
    if fmt == "json":
        write_json(summary_path, meta, {"rows": all_rows})
    else:
        write_csv(summary_path, meta, header,
                  [[row.get(k, "") for k in header] for row in all_rows])
    print(f"wrote {summary_path}")
    if curve_blocks:
        cheader = ["label", "axis_value", "gamma0_tau", "concurrence"]
        if any(b.values.shape[1] == 3 for b in curve_blocks):
            cheader.append("free_concurrence")
        if fmt == "json":
            rows = [[*b.lead, *r] for b in curve_blocks
                    for r in b.values.tolist()]
            write_json(curve_path, meta, {"columns": cheader, "rows": rows})
        else:
            write_csv(curve_path, meta, cheader, curve_blocks)
        print(f"wrote {curve_path}")
    errors = [row["error"] for row in all_rows if row["error"]]
    if errors:
        print(f"numerical failure: {len(errors)} of {len(all_rows)} sweep "
              f"points failed; the first: {errors[0]}", file=sys.stderr)
    return 2 if errors else 0


def _spec_record(spec):
    """Label, resolved base configuration and initial density matrix of a
    sweep spec, for the output metadata."""
    base = {f.name: getattr(spec.base, f.name)
            for f in dataclasses.fields(spec.base)}
    base["d1"], base["d2"] = base["d1"].tolist(), base["d2"].tolist()
    return {"label": spec.label, "base": base,
            "initial_state": _complex_pairs(spec.initial().density_matrix())}


def _spec_from_dict(raw):
    """The :class:`SweepSpec` of a spec file.  Keys the file leaves out take
    the defaults of ``SweepSpec``, and of :class:`RunConfig` in ``base``."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(sw.SweepSpec)}
    if unknown:
        raise ConfigError(f"unknown sweep key(s): {', '.join(sorted(unknown))}")
    base = raw.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("sweep spec base must be a JSON object")
    unknown = set(base) - set(_PHYSICAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown base key(s): {', '.join(sorted(unknown))}")
    missing = {"axis", "values"} - set(raw)
    if missing:
        raise ConfigError(
            f"sweep spec lacks key(s): {', '.join(sorted(missing))}")
    unread = {"horizon", "sample_step"} & set(raw)
    if raw["axis"] == "time" and unread:
        raise ConfigError(f"a time-axis sweep spec samples its values and "
                          f"takes no {', '.join(sorted(unread))}")
    label = raw.get("label", "sweep")
    # the label names the output files inside --output
    if (not isinstance(label, str) or label in ("", ".", "..")
            or any(c in label for c in {"/", os.sep, "\0"})):
        raise ConfigError(
            f"sweep label must be a non-empty string naming a file, without "
            f"'/', {os.sep!r} or NUL, and not '.' or '..'; got {label!r}")
    try:
        fields = {**raw, "label": label,
                  "base": RunConfig.from_dict(base).physical()}
        if not isinstance(raw.get("initial_state", ""), str):
            fields["initial_state"] = dy.XState.resolve(
                _parse_matrix(raw["initial_state"]))
        spec = sw.SweepSpec(**fields)
        spec.check_grid()
        return spec
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid sweep spec: {exc}") from exc


def _oracle_report(cfg, omega0=1.0):
    """Compare closed-form spectral tensors against the quadrature oracle.

    Each component's error is relative to its closed form, floored at 1e-5
    of the largest closed form in the report, so that a vanishing
    component is judged on the report's own scale (at omega < 0 every
    value carries the Planck factor exp(-2 pi |omega| / a)).
    """
    pref = co.spectral_prefactor(omega0, cfg.a)
    closed_forms = {}
    for part, sign in (("free", 1.0), ("boundary", -1.0)):
        for pair, tens in co.spectral_tensors(cfg, part).items():
            for m in range(1, 4):
                for n in range(1, 4):
                    closed = sign * pref * tens[m - 1, n - 1]
                    if closed != 0.0 or (m, n) in ((1, 1), (2, 2)):
                        closed_forms[part, pair, m, n] = closed
    # all closed forms vanish only where pref does (a = 0, omega < 0)
    floor = 1e-5 * (max(map(abs, closed_forms.values())) or 1.0)
    worst = 0.0
    worst_tag = ""
    failures = []
    for (part, pair, m, n), closed in closed_forms.items():
        res = fc.fourier_oracle(part, m, n, pair, cfg, omega0)
        rel = abs(res.value - closed) / max(abs(closed), floor)
        tag = f"{part} {pair} [{m}{n}]"
        if not res.converged:
            failures.append(f"{tag}: {res.message}")
        elif not rel <= 0.01:
            failures.append(f"{tag}: relative error {rel:.3e}")
        if rel > worst:
            worst = rel
            worst_tag = tag
    return (2 if failures else 0,
            {"max_rel_error": worst, "worst_component": worst_tag,
             "checks": len(closed_forms), "failures": failures})


def cmd_validate(args):
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.output:
        _check_writable(Path(args.output), make_dir=False)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    report_rows = []
    failed = []
    for i in range(args.samples):
        alignment = "parallel" if i % 2 == 0 else "vertical"
        cfg = co.PhysicalConfig.from_ratios(
            float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 3.0)), alignment)
        st, rep = _oracle_report(cfg)
        if st:
            failed.append(f"config {i}: " + "; ".join(rep["failures"]))
        worst = max(worst, rep["max_rel_error"])
        report_rows.append([i, alignment, cfg.a, cfg.L, cfg.y_over_L,
                            rep["max_rel_error"], rep["worst_component"],
                            "; ".join(rep["failures"])])
        print(f"config {i:2d} {alignment:8s} a={cfg.a:.3f} wL={cfg.L:.3f} "
              f"y/L={cfg.y_over_L:.3f}: max rel {rep['max_rel_error']:.3e}"
              + (f"  FAILED: {rep['failures']}" if rep["failures"] else ""))
    print(f"overall max relative error: {worst:.3e}")
    if args.output:
        meta = _metadata({"samples": args.samples, "seed": args.seed})
        write_csv(Path(args.output), meta,
                  ["index", "alignment", "a_over_omega", "omega_L",
                   "y_over_L", "max_rel_error", "worst_component",
                   "failures"],
                  report_rows)
    if failed:
        print("oracle validation FAILED", *failed, sep="\n", file=sys.stderr)
    return 2 if failed else 0


def cmd_presets(args):
    presets = sw.figure_presets()
    for name in sorted(presets, key=lambda s: int(s.removeprefix("fig"))):
        p = presets[name]
        print(f"{name:7s} {p.description}  [{len(p.specs)} sweep(s)]")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call of ``main`` gets a fresh namespace."""
    parser = _Parser(
        prog="mirroratoms",
        description="Entanglement dynamics of two accelerated atoms near "
                    "a reflecting boundary")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print the six master-equation rates")
    _add_physics_flags(p, scan=False)
    p.add_argument("--expansion", action="store_true",
                   help="also print the near-boundary expansion")
    p.add_argument("--oracle", action="store_const", const=True,
                   dest="oracle_validation",
                   help="cross-check against the quadrature oracle")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("evolve", help="write a concurrence/state trajectory")
    _add_physics_flags(p)
    p.add_argument("--free-space-companion", action="store_const",
                   const=True, dest="include_free_space_companion")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("events", help="extract death/birth/revival events")
    _add_physics_flags(p)
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("sweep", help="run a parameter sweep or preset")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", help="figure preset name (see 'presets')")
    source.add_argument("--spec", help="JSON sweep specification file")
    p.add_argument("--output", help="output directory")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate",
                       help="oracle cross-check of the closed forms")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=20180801)
    p.add_argument("--output", help="CSV report path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("presets", help="list figure presets")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (co.RateError, dy.PropagationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
