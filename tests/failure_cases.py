"""Every failing input of the plantrack CLI, one row each.

A row names its input files (name -> text, or bytes), the commands that
must succeed first (``setup``), and the failing commands, each written
without ``--out``: a runner appends its own.  Every failing command of a
row exits with the row's ``status`` (1, or 2 for a usage error) and its
exact ``stderr``, and writes exactly the files of ``written`` under its
``--out``; a sweep's manifest also records ``failures`` by pair.  A sweep
command that names no ``--workers`` runs once per worker count of
``WORKERS``, and its runs must agree byte for byte.

tests/test_cli.py runs every command of every row in process;
tools/artifact_diff.py runs the first ``gate`` commands of each row
against two checkouts.  This module imports nothing from plantrack, so
the tool reads it without importing the program.  A new failure case is
one row.
"""

from __future__ import annotations

from typing import NamedTuple

WORKERS = ("1", "2")


class Case(NamedTuple):
    id: str
    commands: tuple[str, ...]
    stderr: str
    files: dict = {}
    setup: tuple[str, ...] = ()
    failures: dict | None = None
    written: frozenset = frozenset()
    gate: int = 1
    status: int = 1


def argvs(command: str) -> list[list[str]]:
    """The argument lists one command stands for: a sweep that names no
    worker count once per worker count."""
    words = command.split()
    if words[0] != "sweep" or "--workers" in words:
        return [words]
    return [[*words, "--workers", w] for w in WORKERS]


# The first of the two lines argparse prints for a usage error.
USAGE = "usage: plantrack [-h] {plan,track,sweep,stiffness} ..."


TRAJECTORY_HEADER = "t,y,v,a,u,e_pred\n"
FRONTIER_HEADER = ("mu,designed_cost,predicted_error_sq_integral,actual_cost,"
                   "actual_error_sq_integral\n")
FRONTIER = FRONTIER_HEADER + "0,75,1,80,1\n10,76,0.5,78,1\n"
# One pair at two weights: three points a sweep row plans per pair.
REDUCED_SWEEP = "[controllers]\npairs = -20,-200\n\n[mu_grid]\ncount = 2\nmin = 100\nmax = 2000\n"
# The trajectory the commands that read one are given.
PLAN = "plan --pair -10,-100 --mu 3.5 --out plan_10_100_3.5"


def trajectory(edits: dict[int, str]) -> str:
    """Ten zero rows 0.25 s apart, with the rows of ``edits`` (from 1) replaced."""
    rows = [edits.get(k + 1, f"{k / 4},0,0,0,0,0") for k in range(10)]
    return TRAJECTORY_HEADER + "".join(row + "\n" for row in rows)


def config_error(id: str, text, message: str, gate=("plan",)) -> Case:
    """A config every command rejects at load, before it reads any other input;
    ``text`` None leaves the file out.  The gate runs the ``gate`` commands."""
    name = f"{id}.ini"
    commands = {
        "plan": f"plan --config {name} --pair -10,-100",
        "track": f"track plan_10_100_3.5/trajectory.csv --config {name} --pair -10,-100 --mu 3.5",
        "stiffness": f"stiffness frontier.csv --config {name} --pair -10,-100",
        "sweep": f"sweep --config {name}",
    }
    order = [*gate, *(command for command in commands if command not in gate)]
    files = {"frontier.csv": FRONTIER} | ({} if text is None else {name: text})
    return Case(id, tuple(commands[command] for command in order),
                f"config error: {message}", files, (PLAN,), gate=len(gate))


def usage_error(id: str, command: str, message: str) -> Case:
    """A command argparse refuses with exit status 2, writing nothing."""
    return Case(id, (command,), f"{USAGE}\nplantrack: error: {message}", status=2)


def sweep_failure(id: str, name: str, text: str, failures: dict, ran=()) -> Case:
    """A sweep whose pairs in ``failures`` fail and whose pairs in ``ran`` write
    their frontier and spring."""
    pair_files = {f"frontier_{slug}.csv" for slug in ran} | {f"spring_{slug}.json" for slug in ran}
    return Case(id, (f"sweep --config {name}",),
                "\n".join(f"sweep {slug}: {message}" for slug, message in failures.items()),
                {name: text}, failures=failures,
                written=frozenset({"manifest.json"} | pair_files))


def too_long(horizon: float) -> dict[str, str]:
    """select_step's message by default pair: each flies its own raw RK4 step."""
    return {
        slug: f"a {horizon:g} s flight takes {horizon / step:.3g} RK4 steps of {step:g} s,"
              " over the bound of 1000000"
        for slug, step in (("10_100", 1e-3), ("20_200", 1e-3),
                           ("30_300", 0.2 / 300), ("50_500", 0.2 / 500))
    }


def horizon(value: str) -> str:
    return f"[plan]\nhorizon = {value}\n\n[mu_grid]\ncount = 1\n"


# A start so fast that the coasting altitude y0 + v0 t overflows.
OVERFLOWING_START = "[plan]\nhorizon = 1e120\nv0 = 1e200\ny_min = -1e300\ny_max = 1e300\n"
# 1/167 s at the -500 pole: |lambda| h = 2.99 > 2.78.
RK4_UNSTABLE = ("sim step 0.005988023952095809 s is not RK4-stable"
                " (|lambda_fast| * step > 2.78)")
# A 0.02 s step on the 1/60 s knot grid.
OVER_KNOTS = "sim step 0.02 s exceeds the knot spacing 0.016666666666666666 s"
MODEL_RANGE = "mass, arm_length and gravity must be positive and finite"
STEP_RULE = "step rule fields must be positive and finite"
NOT_ASCENDING = ("mu grid must be strictly ascending: [mu_grid] min > 0, and"
                 " min < max when count > 1")

CASES = (
    # Configs rejected at load.
    config_error("unknown_section", "[plot]\ncolor = red\n", "unknown config section [plot]"),
    config_error("unknown_key", "[plan]\nextra = 1\n", "unknown key 'extra' in section [plan]"),
    config_error("bogus_key", "[plan]\nbogus = 1\n", "unknown key 'bogus' in section [plan]"),
    config_error("bad_boolean", "[plan]\nenforce_initial_accel_zero = maybe\n",
                 "[plan] enforce_initial_accel_zero: not a boolean: 'maybe'"),
    config_error("bad_pair", "[controllers]\npairs = -10\n",
                 "[controllers] pairs: pair '-10' is not 'slow,fast'"),
    config_error("repeated_pair", "[controllers]\npairs = -10,-10; -20,-200\n",
                 "[controllers] pairs: pair '-10,-10': repeated eigenvalue pair"
                 " is not supported"),
    config_error("empty_pairs", "[controllers]\npairs =\n", "controller pair list is empty"),
    # configparser's three-line text, on one line.
    config_error("unparsable", "this is not an ini file [\n",
                 "cannot parse config: File contains no section headers."
                 " file: 'unparsable.ini', line: 1 'this is not an ini file [\\n'"),
    # configparser forms the format leaves out: [DEFAULT], % interpolation,
    # keys in another letter case, ':' as delimiter and ';' comments.
    config_error("default_section", "[DEFAULT]\nhorizon = 2\n",
                 "unknown config section [DEFAULT]"),
    config_error("percent", "[plan]\nhorizon = 1%\n",
                 "[plan] horizon: could not convert string to float: '1%'"),
    config_error("interpolation", "[plan]\nyf = 4.0\ny_max = %(yf)s\n",
                 "[plan] y_max: could not convert string to float: '%(yf)s'"),
    config_error("key_case", "[plan]\nHorizon = 2\n", "unknown key 'Horizon' in section [plan]"),
    config_error("colon", "[plan]\nhorizon: 2\n",
                 "cannot parse config: Source contains parsing errors: 'colon.ini'"
                 " [line 2]: 'horizon: 2\\n'"),
    config_error("semicolon_comment", "[model]\nmass = 0.54 ; kg\n",
                 "[model] mass: could not convert string to float: '0.54 ; kg'"),
    config_error("absent", None,
                 "cannot read config: [Errno 2] No such file or directory: 'absent.ini'"),
    config_error("undecodable", b"[plan]\nhorizon = 1\xff\n",
                 "cannot read config: 'utf-8' codec can't decode byte 0xff in position 18:"
                 " invalid start byte"),
    config_error("v0_nan", "[plan]\nv0 = nan\n", "v0 must be finite"),
    config_error("mass_0", "[model]\nmass = 0\n", MODEL_RANGE),
    # inf > 0 holds, so positivity alone does not reject it.
    config_error("mass_inf", "[model]\nmass = inf\n", MODEL_RANGE),
    config_error("arm_length_inf", "[model]\narm_length = inf\n", MODEL_RANGE),
    config_error("gravity_inf", "[model]\ngravity = inf\n", MODEL_RANGE),
    # Vehicle products that overflow: the gains at 1e307 kg, M g at 1e308 kg.
    config_error("mass_1e307", "[model]\nmass = 1e307\n",
                 "pair -10.0,-100.0: gains must be positive and finite for a stable pair",
                 gate=("track",)),
    config_error("mass_1e308", "[model]\nmass = 1e308\n",
                 "hover thrust mass * gravity overflows (1e+308 * 9.81)", gate=("track",)),
    # M d underflows to 0, and the pitch acceleration divides by it.
    config_error("arm_5e-324", "[model]\nmass = 0.1\narm_length = 5e-324\n",
                 "mass * arm_length underflows (0.1 * 5e-324)", gate=("track",)),
    # Log grids whose weights pass the largest float: ratio**4, and a ratio
    # that is inf; and a nan bound.
    config_error("mu_overflow", "[mu_grid]\ncount = 5\nmin = 1\nmax = 1.7976931348623157e308\n",
                 "mu grid must be finite"),
    config_error("mu_ratio_overflow", "[mu_grid]\nmin = 1e-308\nmax = 1e300\n",
                 "mu grid must be finite"),
    config_error("mu_nan", "[mu_grid]\nmax = nan\n", "mu grid must be finite"),
    # An ascending grid with a weight no design problem accepts: {0, 0.1, inf}.
    config_error("mu_max_inf", "[mu_grid]\ncount = 2\nmax = inf\n", "mu grid must be finite"),
    config_error("mu_scale_cubic", "[mu_grid]\nscale = cubic\n",
                 "mu scale must be 'log' or 'linear'"),
    config_error("mu_count_0", "[mu_grid]\ncount = 0\n", "mu grid count must be at least 1"),
    config_error("mu_min_0", "[mu_grid]\nmin = 0\n", "log mu grid needs [mu_grid] min > 0"),
    config_error("mu_min_over_max", "[mu_grid]\nmin = 10\nmax = 1\n",
                 "[mu_grid] min must not exceed max"),
    # Grids a sweep could not order: {0, 0, ...} and {0, 5, 5, 5}.
    config_error("linear_mu_min_0", "[mu_grid]\nscale = linear\nmin = 0\n", NOT_ASCENDING),
    config_error("mu_flat", "[mu_grid]\ncount = 3\nmin = 5\nmax = 5\n", NOT_ASCENDING),
    # Step rules no step can be chosen from.
    *(config_error(f"{key}_{value}", f"[sim]\n{key} = {value}\n", STEP_RULE)
      for key, values in (("max_step", ("0", "nan", "inf")), ("pole_fraction", ("0", "inf")))
      for value in values),
    # Plan fields no design problem accepts.
    config_error("horizon_nan", "[plan]\nhorizon = nan\n", "horizon must be finite"),
    config_error("horizon_inf", "[plan]\nhorizon = inf\n", "horizon must be finite"),
    config_error("horizon_0", "[plan]\nhorizon = 0\n", "horizon must be positive"),
    config_error("segments_1", "[plan]\nsegments = 1\n", "need at least 2 segments"),
    config_error("segments_2001", "[plan]\nsegments = 2001\n",
                 "2001 segments is over the bound of 2000"),
    config_error("y_min_5", "[plan]\ny_min = 5\n", "[plan] y_min (5.0) must be below y_max (5.0)"),
    config_error("y_max_inf", "[plan]\ny_max = inf\n", "[plan] y_min and y_max must be finite"),
    # Pairs whose file labels collide would overwrite each other's files.
    config_error("pair_twice", "[controllers]\npairs = -10,-100; -10,-100\n",
                 "pairs -10.0,-100.0 and -10.0,-100.0 share the file label '10_100'"),
    config_error("label_collision", "[controllers]\npairs = -10,-100; -10.0000001,-100\n",
                 "pairs -10.0,-100.0 and -10.0000001,-100.0 share the file label '10_100'"),
    # Path("") is the working directory.
    config_error("empty_directory", "[output]\ndirectory =\n",
                 "output directory must not be empty"),
    # A design of 10^12 knot pairs, over the segment bound.
    config_error("segments_1e6", "[plan]\nsegments = 1000000\n",
                 "1000000 segments is over the bound of 2000", gate=("plan", "sweep")),
    # A grid one weight over the bound, rejected before it is built.  Never
    # gate its sweep: a checkout without the bound plans every weight.
    config_error("mu_count_over_bound", "[mu_grid]\ncount = 1000001\n",
                 "mu grid count 1000001 is over the bound of 1000000"),
    # Flags argparse refuses.
    usage_error("unknown_pair", "plan --pair -11,-111",
                "pair '-11,-111' is not in the configured set"
                " (-10,-100; -20,-200; -30,-300; -50,-500)"),
    usage_error("malformed_pair", "plan --pair -11", "pair '-11' is not 'slow,fast'"),
    usage_error("two_pairs", "plan --pair -10,-100;-20,-200",
                "--pair expects one 'slow,fast' pair, got '-10,-100;-20,-200'"),
    usage_error("zero_workers", "sweep --workers 0", "--workers must be at least 1"),
    # Problems the planner rejects before the active-set loop.
    Case("outside_box", ("plan --config outside_box.ini --pair -10,-100",
                         "plan --config outside_box.ini --pair -20,-200"),
         "error: boundary altitudes y0=0.0, yf=6.0 must lie within the bounds [0.0, 5.0]",
         {"outside_box.ini": "[plan]\nyf = 6.0\n"}),
    Case("mu_not_finite", ("plan --pair -20,-200 --mu nan", "plan --pair -20,-200 --mu inf"),
         "error: mu must be finite"),
    # Finite, but 2 mu P overflows.
    Case("mu_1e308", ("plan --pair -10,-100 --mu 1e308", "plan --pair -20,-200 --mu 1e308"),
         "error: mu = 1e+308 overflows the design terms"),
    # The design terms are finite; the working-set solve overflows.
    Case("mu_1e300", ("plan --pair -10,-100 --mu 1e300",),
         "error: KKT solve produced non-finite values (size 62, constraint rows 1)"),
    # A start so fast that mu = 1e304 overflows the objective's constant.
    Case("fast_start", ("plan --config fast_start.ini --pair -50,-500 --mu 1e304",),
         "error: mu = 1e+304 overflows the design terms",
         {"fast_start.ini": "[plan]\nv0 = 1e9\n"}),
    # M g and the gains of the slow pair stay finite; M (a + g) does not.
    Case("thrust_overflow", ("plan --config thrust_overflow.ini --pair -1,-2",),
         "error: planned thrust M (a + g) overflows",
         {"thrust_overflow.ini": "[model]\nmass = 1e307\n[controllers]\npairs = -1,-2\n"}),
    # Y is finite at 1e120 s; y0 + v0 t is not.
    Case("overflowing_start", ("plan --config overflowing_start.ini --pair -10,-100",),
         "error: v0 1e+200 m/s over horizon 1e+120 s overflows the design",
         {"overflowing_start.ini": OVERFLOWING_START}),
    # Y grows as dt^2 and overflows at the design build; at 1e100 s Y is
    # finite and the error terms, which grow as dt^3, overflow.
    Case("horizon_1e160_plan", ("plan --config horizon_1e160.ini --pair -10,-100 --mu 0",),
         "error: horizon 1e+160 s overflows the design", {"horizon_1e160.ini": horizon("1e160")}),
    Case("horizon_1e300_plan", ("plan --config horizon_1e300.ini --pair -10,-100 --mu 0",),
         "error: horizon 1e+300 s overflows the design", {"horizon_1e300.ini": horizon("1e300")}),
    Case("horizon_1e100_plan", ("plan --config horizon_1e100.ini --pair -10,-100 --mu 1",),
         "error: the error terms overflow the design", {"horizon_1e100.ini": horizon("1e100")}),
    # Trajectory CSVs the reader rejects, one check each.
    Case("renamed", ("track renamed.csv --pair -20,-200", "track renamed.csv --pair -10,-100"),
         "error: column 3: expected 'a', found 'acc'",
         {"renamed.csv": "t,y,v,acc,u,e_pred\n0,0,0,0,0,0\n0.5,0,0,0,0,0\n"}),
    Case("missing_column", ("track missing_column.csv --pair -10,-100",),
         "error: column 5: expected 'e_pred', found 'nothing'",
         {"missing_column.csv": "t,y,v,a,u\n0,0,0,0,0\n"}),
    Case("extra_column", ("track extra_column.csv --pair -20,-200",),
         "error: unexpected extra columns ('junk',)",
         {"extra_column.csv": "t,y,v,a,u,e_pred,junk\n0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n"}),
    Case("header_only", ("track header_only.csv --pair -20,-200",
                         "track header_only.csv --pair -10,-100"),
         "error: no data rows after the header", {"header_only.csv": TRAJECTORY_HEADER}),
    # A body of one comment, and one of one space: a row of one empty cell.
    Case("comment_body", ("track comment_body.csv --pair -10,-100",),
         "error: no data rows after the header",
         {"comment_body.csv": TRAJECTORY_HEADER + "# only a comment\n"}),
    Case("space_body", ("track space_body.csv --pair -10,-100",),
         "error: row 1: expected 6 columns, found 1",
         {"space_body.csv": TRAJECTORY_HEADER + " \n"}),
    Case("cell_inf", ("track cell_inf.csv --pair -10,-100",),
         "error: row 5, column 'a': inf is not finite",
         {"cell_inf.csv": trajectory({5: "1.0,0,0,inf,0,0"})}),
    Case("cell_nan", ("track cell_nan.csv --pair -10,-100",),
         "error: row 9, column 'y': nan is not finite",
         {"cell_nan.csv": trajectory({9: "2.0,nan,0,0,0,0"})}),
    # Finite, but its square overflows the designed cost.
    Case("square_overflow", ("track square_overflow.csv --pair -10,-100",),
         "error: column 'a': the integral of its square is not finite",
         {"square_overflow.csv": trajectory({5: "1.0,0,0,1e200,0,0"})}),
    # The first fault in file order: row 2 holds a nan and row 4 is short;
    # the comment is no row.
    Case("first_fault", ("track first_fault.csv --pair -10,-100",),
         "error: row 2, column 'y': nan is not finite",
         {"first_fault.csv": TRAJECTORY_HEADER
          + "0,0,0,0,0,0\n# note\n0.5,nan,0,0,0,0\n1,0,0,0,0,0\n1.5,0,0\n"}),
    Case("short_row", ("track short_row.csv --pair -10,-100",),
         "error: row 3: expected 6 columns, found 3",
         {"short_row.csv": trajectory({3: "0.5,0,0"})}),
    Case("text_cell", ("track text_cell.csv --pair -10,-100",),
         "error: row 3, column 'y': 'abc' is not a number",
         {"text_cell.csv": trajectory({3: "0.5,abc,0,0,0,0"})}),
    Case("trailing_comma", ("track trailing_comma.csv --pair -10,-100",),
         "error: row 3: expected 6 columns, found 7",
         {"trailing_comma.csv": trajectory({3: "0.5,0,0,0,0,0,"})}),
    # A t column shifted off 0, a non-uniform one (and one with a single t
    # moved by 1e-4 s), a decreasing one, and one sample.
    Case("shifted", ("track shifted.csv --pair -20,-200",),
         "error: column 't': profile must start at t = 0",
         {"shifted.csv": TRAJECTORY_HEADER + "0.5,0,0,0,0,0\n1.0,0,0,0,0,0\n1.5,0,0,0,0,0\n"}),
    Case("nonuniform", ("track nonuniform.csv --pair -20,-200",),
         "error: column 't': grid is not uniform",
         {"nonuniform.csv": TRAJECTORY_HEADER + "0.0,0,0,0,0,0\n0.5,0,0,0,0,0\n1.25,0,0,0,0,0\n"}),
    Case("nudged", ("track nudged.csv --pair -20,-200",),
         "error: column 't': grid is not uniform",
         {"nudged.csv": trajectory({6: "1.2501,0,0,0,0,0"})}),
    Case("decreasing", ("track decreasing.csv --pair -20,-200",),
         "error: column 't': times must be strictly increasing",
         {"decreasing.csv": TRAJECTORY_HEADER + "0.0,0,0,0,0,0\n1.0,0,0,0,0,0\n0.5,0,0,0,0,0\n"}),
    Case("single_row", ("track single_row.csv --pair -20,-200",),
         "error: column 't': need at least 2 samples",
         {"single_row.csv": TRAJECTORY_HEADER + "0,0,0,0,0,0\n"}),
    Case("absent_trajectory", ("track absent.csv --pair -10,-100",),
         "error: [Errno 2] No such file or directory: 'absent.csv'"),
    Case("track_mu", tuple(f"track plan_10_100_3.5/trajectory.csv --pair -10,-100 --mu {mu}"
                           for mu in ("nan", "inf", "-5")),
         "error: mu must be finite and nonnegative", setup=(PLAN,)),
    # Step rules: RK4 stability on the fast pole, and the knot spacing.
    Case("rk4_unstable", ("track plan_rk4/trajectory.csv --config rk4.ini --pair -50,-500",),
         f"error: {RK4_UNSTABLE}",
         {"rk4.ini": "[controllers]\npairs = -50,-500\n[sim]\nmax_step = 0.016\n"
                     "pole_fraction = 3.0\n"},
         ("plan --config rk4.ini --pair -50,-500 --out plan_rk4",)),
    Case("over_knots", ("track plan_knots/trajectory.csv --config knots.ini --pair -1,-10",),
         f"error: {OVER_KNOTS}",
         {"knots.ini": "[controllers]\npairs = -1,-10\n[sim]\nmax_step = 0.02\n"},
         ("plan --config knots.ini --pair -1,-10 --out plan_knots",)),
    # The planner's 1e100 s plan is finite; its flight at the 1e-3 s step
    # would hold 1e103 samples.
    Case("horizon_1e100_track",
         ("track plan_1e100/trajectory.csv --config horizon_1e100.ini --pair -10,-100",),
         "error: " + too_long(1e100)["10_100"], {"horizon_1e100.ini": horizon("1e100")},
         ("plan --config horizon_1e100.ini --pair -10,-100 --out plan_1e100",)),
    # Sweeps: a pair that fails is recorded in the manifest, the other
    # pairs run, and the exit status is 1.
    sweep_failure("failing", "failing.ini",
                  "[controllers]\npairs = -10,-100; -50,-500\n\n[sim]\nmax_step = 0.016\n"
                  "pole_fraction = 3.0\n\n[mu_grid]\ncount = 3\n",
                  {"50_500": RK4_UNSTABLE}, ran=("10_100",)),
    # The pair's first point is planned and cannot be flown.
    sweep_failure("sweep_over_knots", "sweep_over_knots.ini",
                  REDUCED_SWEEP.replace("-20,-200", "-1,-10; -20,-200")
                  + "\n[sim]\nmax_step = 0.02\n",
                  {"1_10": f"sweep failed at mu = 0: {OVER_KNOTS}"}, ran=("20_200",)),
    # A box that excludes the goal fails every point inside the process
    # that plans it.
    sweep_failure("sweep_outside_box", "sweep_outside_box.ini",
                  REDUCED_SWEEP + "\n[plan]\nyf = 6.0\ny_max = 5.5\n",
                  {"20_200": "sweep failed at mu = 0: boundary altitudes y0=0.0, yf=6.0"
                             " must lie within the bounds [0.0, 5.5]"}),
    # A zero climb plans and flies, but its head actual cost is 0, so the
    # spring cannot be fitted.
    sweep_failure("spring_fit", "spring_fit.ini",
                  REDUCED_SWEEP.replace("-20,-200", "-10,-100; -20,-200") + "\n[plan]\nyf = 0.0\n",
                  dict.fromkeys(("10_100", "20_200"), "head actual cost must be positive")),
    # Each pair's step rule rejects the flight before any point is planned,
    # also where the design would overflow (1e160 s and more) and where
    # horizon / step overflows (1e306 s).
    *(sweep_failure(f"horizon_{value}", f"horizon_{value}.ini", horizon(value),
                    too_long(float(value)))
      for value in ("1e100", "1e160", "1e300", "1e306")),
    sweep_failure("overflowing_start_sweep", "overflowing_start.ini", OVERFLOWING_START,
                  too_long(1e120)),
    # Frontier CSVs the reader rejects.
    Case("frontier_renamed", ("stiffness frontier_renamed.csv",),
         "error: column 1: expected 'designed_cost', found 'designed'",
         {"frontier_renamed.csv": FRONTIER.replace("designed_cost", "designed")}),
    Case("frontier_short_names", ("stiffness frontier_short_names.csv",),
         "error: column 1: expected 'designed_cost', found 'designed'",
         {"frontier_short_names.csv": "mu,designed,predicted,actual,err\n0,1,1,1,1\n"}),
    Case("frontier_missing_column", ("stiffness frontier_missing_column.csv",),
         "error: column 4: expected 'actual_error_sq_integral', found 'nothing'",
         {"frontier_missing_column.csv": FRONTIER_HEADER.replace(",actual_error_sq_integral", "")
          + "0,1,1,1\n"}),
    Case("frontier_wide", ("stiffness frontier_wide.csv",),
         "error: row 1: expected 5 columns, found 6",
         {"frontier_wide.csv": FRONTIER_HEADER + "0,1,1,1,1,9\n1,1,1,1,1,9\n"}),
    # The empty line is no row; float() reads "1_0", but a cell with an
    # underscore is not a number.
    Case("frontier_underscore", ("stiffness frontier_underscore.csv",),
         "error: row 2, column 'designed_cost': '1_0' is not a number",
         {"frontier_underscore.csv": FRONTIER_HEADER + "0,1,1,1,1\n\n1,1_0,1,1,1\n"}),
    Case("frontier_inf", ("stiffness frontier_inf.csv",),
         "error: row 2, column 'predicted_error_sq_integral': inf is not finite",
         {"frontier_inf.csv": FRONTIER_HEADER + "0,75,1,80,1\n10,76,inf,78,1\n"}),
    Case("frontier_text_cell", ("stiffness frontier_text_cell.csv",),
         "error: row 2, column 'predicted_error_sq_integral': 'x' is not a number",
         {"frontier_text_cell.csv": FRONTIER_HEADER + "0,75,1,80,1\n10,76,x,78,1\n"}),
    Case("frontier_header_only", ("stiffness frontier_header_only.csv",),
         "error: no data rows after the header", {"frontier_header_only.csv": FRONTIER_HEADER}),
    Case("frontier_comments", ("stiffness frontier_comments.csv",),
         "error: no data rows after the header",
         {"frontier_comments.csv": FRONTIER_HEADER + "\n# no points\n\n# yet\n"}),
)
