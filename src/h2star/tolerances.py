"""Every tolerance of h2star, defined once and named for what it guards.

The comment on each entry says what it guards, then one of two things.  An
entry that absorbs floating-point rounding in a kernel, or in the
inequalities that proof-step-properties samples, gives the worst error
measured against a 50-digit mpmath reference (or the exact value) and the
ratio of the value to it; tests/test_tolerances.py repeats each measurement
and asserts that the value covers it.  Any other entry is a policy: a window
that a rule or a check chose; where it also forgives rounding, no
measurement backs its size.  No other module of the package writes a number
in e-notation, which the same test enforces.
"""

# Searches (search.py)
TIE_TOL = 1e-12            # grid values at or above the maximum less this times the maximum
                           # tie; policy
BOUND_MARGIN = 1e-12       # computed |Psi| past its computed row bound phi or line bound
                           # |A| + s2 |coef| / 6 in the lemma grid pruning, relative to
                           # s2 = (1 - alpha)^2; worst 5.4e-16, ratio 1.9e3.  Also computed
                           # phi(p, t) past its p row's phi(p, 1) in both grid searches' row
                           # pruning, relative to s2; worst 0.0
PATTERN_STEP_MIN = 1e-12   # a Herglotz restart stops once both its steps are below this; policy
MONOTONE_DROP_TOL = 1e-12  # monotonicity_scan counts drops of phi along t beyond this, each
                           # <= 0 exactly; worst 3.0e-16, ratio 3.3e3

# Moments (caratheodory.py)
WEIGHT_SUM_TOL = 1e-12     # |sum of the atom weights - 1|; worst 4.4e-16, ratio 2.3e3
DISK_TOL = 1e-12           # |y| or |zeta| past 1 in the lemma box; worst 4.4e-16, ratio 2.3e3
PSD_TOL = 1e-9             # least Toeplitz eigenvalue below 0, and the change of p2 or p3 that
                           # brings a recovered |y| or |zeta| onto the circle; worst 4.8e-15,
                           # ratio 2.1e5
Y_BOUNDARY_TOL = 1e-9      # |y| at or above 1 minus this is on the circle: no zeta; policy
P1_IMAG_TOL = 1e-9         # |Im p1| that lemma_inverse still takes for a real p1; policy
P1_DEGENERATE_GAP = 1e-12  # p1 at or above 2 minus this is degenerate: moments (2, 2, 2); policy

# Acceptance checks (checks.py)
BOUND_GAP_TOL = 1e-9         # a search value past the sharp bound, or the phi search's gap;
                             # worst 3.3e-15, ratio 3.0e5
LEMMA_GRID_SHORTFALL = 5e-3  # the lemma grid search value below the sharp bound; policy
HERGLOTZ_SHORTFALL = 1e-2    # the atom search value below the sharp bound; policy
GRID_CELL_SLACK = 1e-12      # the lemma argmax past one grid cell from p = 0, |y| = 1;
                             # worst 1.2e-16, ratio 8.3e3
ATTAINMENT_TOL = 1e-12       # the extremal function's a2, a3, a4 and det against exact;
                             # worst 2.8e-16, ratio 3.5e3
ROUTE_TOL = 1e-12            # two routes to one value: moment form and closed forms (relative),
                             # five-term and substituted moment form, phi(p, 1) and B(p);
                             # worst 2.8e-15, ratio 3.5e2
PROOF_SLACK = 1e-12          # |Psi| - phi and max B(p) - (1 - alpha)^2, both <= 0 exactly;
                             # worst 3.6e-16, ratio 2.8e3
ROUND_TRIP_TOL = 1e-10       # moments -> (y, zeta) -> moments; worst 6.2e-15, ratio 1.6e4
ROUND_TRIP_P1_CUT = 1e-3     # the round trip leaves out p1 >= 2 minus this; policy
ROUND_TRIP_Y_CUT = 1e-6      # and |y| >= 1 minus this; policy
