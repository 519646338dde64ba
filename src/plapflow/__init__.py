"""FEM solver and diagnostics for nonlinear parabolic flows with (p, delta)-structure."""

__version__ = "0.1.0"
