"""Front end: branch prediction and trace-driven fetch."""

from .bimodal import BimodalPredictor
from .btb import BranchTargetBuffer
from .fetch import FetchedInstr, FetchUnit
from .gshare import GsharePredictor
from .predictor import BranchPredictor, make_predictor
from .ras import ReturnAddressStack
from .tage import TagePredictor

__all__ = ["BimodalPredictor", "BranchTargetBuffer", "FetchedInstr",
           "FetchUnit", "GsharePredictor",
           "BranchPredictor", "make_predictor", "ReturnAddressStack",
           "TagePredictor"]
