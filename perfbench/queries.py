"""Workload queries and the mathematical values every answer is checked against.

A CLI query is an argv for `secat.cli.main` (`--json` is appended) plus its
expectation.  A bound query expects, per endpoint name,

    (lower, upper, lower_absolute, upper_absolute)

and a verification window: `("==", n)` when the window is the presentation's
faithful range (cap - 1 for a presentation with relations), `(">=", n)` when
only a lower limit follows from the mathematics (an absolute answer on a
finite algebra needs its certified top degree n inside the window).  Every
bound query is also checked against the theorem relations: no interval
crosses, and the chain h <= m <= map (toomer <= mcat <= cat,
htc <= mtc <= tc) holds between every lower end and every later upper end.

A minimal-model query expects its generator count per degree, which is an
isomorphism invariant of the minimal model (dim V^n = dim pi_n (x) Q), and
its validity window.

Where the values come from:

- T = Q[a2, b3, x5]/(a^4, ab, ax), dx = a^3 (top degree 8).  toomer = 2:
  the degree-8 class [v3 w5 + v2^2 w4] of its minimal model keeps the
  Toomer invariant at 2.  cat = mcat = 3: (A+)^4 = 0 gives cat <= 3, and
  mcat = cat rationally (Hess).  tc(T): the zero-divisor (a - a')^4 =
  6 a^2 a'^2 is nonzero, so htc >= 4 absolutely, and tc <= 2 cat(T) = 6;
  the upper ends 4 of htc and mtc are verified only in degrees <= 13.
- W = Q[a3, b3, x5]/(abx), dx = ab (top degree 8): tc(W) = 3 by a
  witness and a vanishing kernel power, so tc3(W) >= tc(W) = 3 (Rudyak);
  its three-factor upper ends are verified only in degrees <= 13.
- S = S^3 x S^3 x S^3: a free algebra on three odd generators, top degree
  9, so toomer = mcat = cat = 3.  At the default cap 8 the program prints
  toomer = mcat = 2 and cat in [3, 2]; this is a known defect and counts as
  a failed query until it is fixed.
- The minimal-model censuses were recorded once and cross-checked: the
  printed model is minimal and its Betti numbers equal those of the input
  through the validity window.
"""

from __future__ import annotations

MODELS = "perfbench/models"

# query ids that fail at the parent commit because of a documented defect;
# they still count in `failed`, but do not make the run incorrect
KNOWN_DEFECTS = {
    "cat-S3xS3xS3": "crossed interval at the default cap 8 (ROADMAP item 1)",
}

CAT_T = {"toomer": (2, 2, True, True), "mcat": (3, 3, True, True),
         "cat": (3, 3, True, True)}

CLI_QUERIES = {
    "cat-T-cap14": (["cat", f"{MODELS}/truncated_mix.cdga", "--cap", "14"],
                    {"bounds": CAT_T, "window": ("==", 13)}),
    "cat-T-cap15": (["cat", f"{MODELS}/truncated_mix.cdga", "--cap", "15"],
                    {"bounds": CAT_T, "window": ("==", 14)}),
    "cat-S3xS3xS3": (["cat", f"{MODELS}/s3_cubed.cdga"],
                     {"bounds": {"toomer": (3, 3, True, True),
                                 "mcat": (3, 3, True, True),
                                 "cat": (3, 3, True, True)},
                      "window": (">=", 9)}),
    "tc-T-n2": (["tc", f"{MODELS}/truncated_mix.cdga", "--n", "2"],
                {"bounds": {"htc": (4, 4, True, False),
                            "mtc": (4, 4, True, False),
                            "tc": (4, 6, True, True)},
                 "window": ("==", 13)}),
    "tc-W-n3": (["tc", f"{MODELS}/wedge.cdga", "--n", "3"],
                {"bounds": {"htc3": (3, 3, True, False),
                            "mtc3": (3, 3, True, False),
                            "tc3": (3, 4, True, False)},
                 "window": ("==", 13)}),
    "model-T-cap22": (["minimal-model", f"{MODELS}/truncated_mix.cdga",
                       "--cap", "22"],
                      {"census": {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1,
                                  9: 1, 10: 1, 11: 2, 12: 2, 13: 2, 14: 3,
                                  15: 4, 16: 4, 17: 5, 18: 7, 19: 9, 20: 11},
                       "window": ("==", 21)}),
    "model-W-cap26": (["minimal-model", f"{MODELS}/wedge.cdga", "--cap", "26"],
                      {"census": {3: 2, 5: 1, 10: 1, 12: 2, 14: 4, 16: 6,
                                  18: 9, 19: 1, 20: 12, 21: 2, 22: 16, 23: 7,
                                  24: 20},
                       "window": ("==", 25)}),
}

WORKLOADS = {
    "cat-cap": ["cat-T-cap14", "cat-T-cap15", "cat-S3xS3xS3"],
    "tc-diagonal": ["tc-T-n2", "tc-W-n3"],
    "model-tower": ["model-T-cap22", "model-W-cap26"],
    "verify-corpus": None,  # the entries of corpus/corpus.json
}

# the cheapest query of each workload, for the self-test
SMALLEST = {"cat-cap": "cat-T-cap14", "tc-diagonal": "tc-W-n3",
            "model-tower": "model-W-cap26", "verify-corpus": "sweep-000"}


def _window_ok(spec, value) -> bool:
    op, n = spec
    return value is not None and (value == n if op == "==" else value >= n)


def check_bounds(out: dict, expect: dict) -> list[str]:
    """Problems of a `cat`/`tc` report against its expected endpoints."""
    problems = []
    bounds = out.get("bounds", [])
    got = {b["name"]: b for b in bounds}
    if sorted(got) != sorted(expect["bounds"]):
        return [f"endpoints {sorted(got)}, expected {sorted(expect['bounds'])}"]
    for name, want in expect["bounds"].items():
        b = got[name]
        have = (b["lower"], b["upper"], b["lower_absolute"],
                b["upper_absolute"])
        if have != want:
            problems.append(f"{name} is {have}, expected {want}")
        if not _window_ok(expect["window"], b["verified_up_to"]):
            problems.append(f"{name} verified up to {b['verified_up_to']}, "
                            f"expected {expect['window'][0]} "
                            f"{expect['window'][1]}")
    for b in bounds:
        if None not in (b["lower"], b["upper"]) and b["lower"] > b["upper"]:
            problems.append(f"{b['name']} interval crosses: "
                            f"[{b['lower']}, {b['upper']}]")
    for i, lo in enumerate(bounds):
        for hi in bounds[i + 1:]:
            if None not in (lo["lower"], hi["upper"]) \
                    and lo["lower"] > hi["upper"]:
                problems.append(f"chain broken: {lo['name']} >= {lo['lower']}"
                                f" but {hi['name']} <= {hi['upper']}")
    return problems


def check_model(out: dict, expect: dict) -> list[str]:
    """Problems of a `minimal-model` report against its expected census."""
    census: dict[int, int] = {}
    for _, degree in out.get("generators", []):
        census[degree] = census.get(degree, 0) + 1
    problems = []
    if census != expect["census"]:
        problems.append(f"generator census {census}, "
                        f"expected {expect['census']}")
    if not _window_ok(expect["window"], out.get("valid_up_to")):
        problems.append(f"model valid up to {out.get('valid_up_to')}, "
                        f"expected {expect['window'][1]}")
    return problems


def check_cli(out: dict, expect: dict) -> list[str]:
    return (check_model if "census" in expect else check_bounds)(out, expect)


def wrong_expectation(expect):
    """A deliberately wrong copy of an expectation, for the self-test."""
    if isinstance(expect, bool):
        return not expect
    if "census" in expect:
        census = expect["census"]
        lowest = min(census)
        return dict(expect, census={**census, lowest: census[lowest] + 1})
    name, (lo, hi, la, ua) = next(iter(expect["bounds"].items()))
    return dict(expect, bounds={**expect["bounds"],
                                name: (lo + 1, hi + 1, la, ua)})
