"""Put the checkout's sources and the benchmark's modules on the import path."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]
