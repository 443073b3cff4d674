"""Frozen dimension values, each written once for every test that checks it.

Unless a comment says otherwise, the values come from the independent
oracles beside this module: dims_oracle.py (closed forms, scipy bounded
search on the one-parameter reductions with the endpoints included, brentq
box roots) and moran_oracle.py (brentq Moran roots).  This module imports
neither carpetdim nor scipy, so any script can load it.

gl3 is the 3-map Gatzouras-Lalley carpet of 1/2 x 1/4 maps at (0, 0),
(0, 1/2) and (1/2, 0); exc(delta) is ``build_exceptional(delta)``.
"""

GL3_DIMH = 1.271553303163612          # log2(1 + sqrt 2)
GL3_DIMB = 1.292481250360578          # 1 + log(3/2)/log 4
# the package's estimate of GL3_DIMB over 2^-4 .. 2^-9, a regression
GL3_DIMB_ESTIMATE = 1.2919164905291594

# the near-flat carpet NEAR_FLAT_ROWS of test_dimensions.py: three rows of
# one map each, so dimH = dimB = D_2, the root of 2 (1/10)^s + (1/5)^s = 1
# (mpmath findroot at 40 digits: 0.53807503982571749638...)
NEAR_FLAT_ROWS_DIMH = 0.5380750398257175

EXC0_P0 = 0.415037499278844
EXC0_SUP_D1 = 0.489536321199650       # reduction sup, argmax 0.415974485884
EXC0_SUP_D2 = 0.529532656220852       # reduction sup, argmax 0.580810911591
# the reduction suprema to the digits the acceptance gates state
EXC0_SUP_D1_ROUNDED = 0.489536
EXC0_SUP_D2_ROUNDED = 0.529533
EXC0_D1 = 1.697053767125634           # constrained axis-1 value (boundary)
EXC0_D2 = 1.722629596943400           # constrained axis-2 value (interior)

# delta = 1/40: widths a1 = 37/120, a2 = 17/120, heights b = 9/40
EXC40_D1 = 1.570175084313288
EXC40_D2 = 1.595978680097956
EXC40_PROJ1 = 0.920784065313739       # a1^s + 4 a2^s = 1
EXC40_PROJ2 = 0.929366693798885       # 4 b^s = 1
EXC40_COLUMN_FIBER = 0.929366693798885   # 4 b^t = 1 (wide-column slice)
EXC40_ROW_FIBER = 0.666611986299070      # a1^t + 2 a2^t = 1 (row slice)
EXC40_A1 = EXC40_PROJ1 + EXC40_COLUMN_FIBER
EXC40_A2 = EXC40_PROJ2 + EXC40_ROW_FIBER

# dimB = max(D_1, D_2) of the example family, which is D_2 at each delta
# (and equals d_2 at 0 and 1/40)
EXC_DIMB = {"0": EXC0_D2, "1/40": EXC40_D2, "1/7": 1.006585318851378}

# the 4 x 2 grid carpet with sides from 1/1000 to 199/200 (SLIVER_MAPS in
# test_dimensions.py, SLIVER_CONFIG in test_cli.py): dimB = D_2, above
# dimH 1.924974580615449
SLIVER_DIMB = 1.9511446829793002
