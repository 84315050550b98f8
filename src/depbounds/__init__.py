"""depbounds: verified tail bounds for sums of weakly dependent [0,1]-valued
random variables, with exact small-n oracles, Monte Carlo estimators and a
command-line front end.

Each name is imported from its own module (``depbounds.bounds``,
``depbounds.oracle``, ...), so importing the package, as
``python -m depbounds.cli`` does first, loads none of them.
"""

__version__ = "0.1.0"
