"""Baseline framework reimplementations (execution models, see DESIGN.md §3).

Capability matrix (the paper's Table 1):

=========== ============= ================ ================ ==============
Framework   Kernel fusion Vendor libraries Dynamic batching Persistence
=========== ============= ================ ================ ==============
Cavs        Partial       Yes              Yes              No
DyNet       No            Yes              Yes              No
Nimble      Partial       No               No               No
PyTorch     No            Yes              No               No
Cortex      Yes           No               Yes              Yes
=========== ============= ================ ================ ==============
"""

from . import cavs_like, dynet_like, grnn_like, pytorch_like
from .cells import CELLS, CellDef, get_cell
from .framework import Ledger, VendorKernels
from .pytorch_like import BaselineResult

#: Table 1 as data, asserted by
#: tests/test_baselines.py::test_feature_matrix_table1
FEATURE_MATRIX = {
    "cavs": {"kernel_fusion": "partial", "vendor_libraries": True,
             "dynamic_batching": True, "model_persistence": False},
    "dynet": {"kernel_fusion": "none", "vendor_libraries": True,
              "dynamic_batching": True, "model_persistence": False},
    "nimble": {"kernel_fusion": "partial", "vendor_libraries": False,
               "dynamic_batching": False, "model_persistence": False},
    "pytorch": {"kernel_fusion": "none", "vendor_libraries": True,
                "dynamic_batching": False, "model_persistence": False},
    "cortex": {"kernel_fusion": "full", "vendor_libraries": False,
               "dynamic_batching": True, "model_persistence": True},
}

__all__ = ["cavs_like", "dynet_like", "grnn_like", "pytorch_like",
           "CELLS", "CellDef", "get_cell", "Ledger",
           "VendorKernels", "BaselineResult", "FEATURE_MATRIX"]
