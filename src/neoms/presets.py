"""Named operating points, stored as config text and parsed on demand.

Each preset is a complete run configuration in the same grammar users write,
so the presets exercise the parser rather than bypass it.  Where a preset
needs a quantity the corresponding plotted family does not pin down (a tone
amplitude behind a phase family, a coupling behind a displacement readout),
the choice is listed in `assumptions`.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import RunConfig, parse_config_text

_BASE = """\
cavity_length = 0.25 m
wavelength = 1064 nm
mass1 = 145 ng
mass2 = 145 ng
omega1 = 2pi*947 kHz
omega2 = 2pi*947 kHz
gamma1 = 2pi*140 kHz
gamma2 = 2pi*140 kHz
kappa = 2pi*215 kHz
delta_c_over_kappa = 3.6
drive_power = 9 mW
"""

_PI = "3.141592653589793"
_PI_2 = "1.5707963267948966"
_PI_4 = "0.7853981633974483"


class Preset(NamedTuple):
    name: str
    text: str
    assumptions: tuple[str, ...] = ()

    def config(self) -> RunConfig:
        return parse_config_text(self.text)


_COMMON_ASSUMPTIONS = (
    "identical mirrors: mass 145 ng, frequency 2pi*947 kHz, "
    "damping 2pi*140 kHz",
    "detuning fixed at 3.6 kappa unless the preset varies it",
)

PRESETS: dict[str, Preset] = {}


def _add(name: str, text: str, assumptions: tuple[str, ...] = ()) -> None:
    PRESETS[name] = Preset(name=name, text=text,
                           assumptions=_COMMON_ASSUMPTIONS + assumptions)


_add(
    "fig2",
    _BASE + "g0 = 2pi*5 kHz\ngc = 0 rad/s\n",
    ("mirror-mirror coupling set to zero for the single-curve baseline",))

_add(
    "fig3",
    _BASE + "g0 = 2pi*5 kHz\ngc = 0 rad/s\n"
    "vary = g0\nvalues = 2pi*5 kHz, 2pi*6 kHz, 2pi*7 kHz\n",
    ("mirror-mirror coupling set to zero",))

_add(
    "fig4",
    _BASE + "g0 = 2pi*5 kHz\ngc = 0 rad/s\n"
    "vary = gc\nvalues = 2pi*0.2 MHz, 2pi*0.4 MHz, 2pi*0.6 MHz\n")

_add(
    "fig5",
    _BASE + "g0 = 2pi*5 kHz\ngc = 0 rad/s\n"
    "vary = delta_c\n"
    "values = 2pi*387 kHz, 2pi*580.5 kHz, 2pi*774 kHz, 2pi*924.5 kHz\n",
    ("mirror-mirror coupling set to zero",
     "detuning values are 1.8, 2.7, 3.6 and 4.3 kappa; the lowest sits "
     "just above the sqrt(3)*kappa/2 fold threshold"))

_add(
    "fig6a",
    _BASE + "g0 = 2pi*5 kHz\ngc = 2pi*0.2 MHz\n"
    "eps1_over_omega1 = 2\n"
    f"vary = phi1\nvalues = {_PI_4} rad, {_PI_2} rad, {_PI} rad\n",
    ("mirror-1 tone amplitude fixed at 2*omega1 behind the phase family",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz"))

_add(
    "fig6b",
    _BASE + "g0 = 2pi*5 kHz\ngc = 2pi*0.2 MHz\n"
    "eps2_over_omega2 = 2.4\n"
    f"vary = phi2\nvalues = {_PI_4} rad, {_PI_2} rad, {_PI} rad\n",
    ("mirror-2 tone amplitude fixed at 2.4*omega2 behind the phase family",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz"))

_add(
    "fig6c",
    _BASE + "g0 = 2pi*5 kHz\ngc = 2pi*0.2 MHz\nphi1 = 0 rad\n"
    "vary = eps1\nvalues = 2pi*1894 kHz, 2pi*3219.8 kHz, 2pi*4545.6 kHz\n",
    ("amplitude values are 2, 3.4 and 4.8 times omega1 with a zero phase",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz"))

_add(
    "fig6d",
    _BASE + "g0 = 2pi*5 kHz\ngc = 2pi*0.2 MHz\nphi2 = 0 rad\n"
    "vary = eps2\nvalues = 2pi*2272.8 kHz, 2pi*2841 kHz, 2pi*3598.6 kHz\n",
    ("amplitude values are 2.4, 3.0 and 3.8 times omega2 with a zero phase",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz"))

_add(
    "fig7",
    _BASE + "g0 = 2pi*4 kHz\ngc = 0 rad/s\n"
    "vary = g0\nvalues = 2pi*4 kHz, 2pi*6 kHz, 2pi*8 kHz\n",
    ("mirror-mirror coupling set to zero",))

_add(
    "fig8a",
    _BASE + "g0 = 2pi*6 kHz\ngc = 2pi*0.2 MHz\n",
    ("optomechanical coupling fixed at 2pi*6 kHz",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz so the second mirror "
     "inherits the bistability"))

_add(
    "fig8b",
    _BASE + "g0 = 2pi*6 kHz\ngc = 2pi*0.2 MHz\nphi1 = 0 rad\n"
    "vary = eps1\nvalues = 2pi*1894 kHz, 2pi*3219.8 kHz, 2pi*4545.6 kHz\n",
    ("amplitude values are 2, 3.4 and 4.8 times omega1 with a zero phase",
     "optomechanical coupling fixed at 2pi*6 kHz",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz"))

_add(
    "fig8c",
    PRESETS["fig8a"].text,
    ("same operating point as fig8a; read the q2_m column",
     "optomechanical coupling fixed at 2pi*6 kHz",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz"))

_add(
    "fig8d",
    _BASE + "g0 = 2pi*6 kHz\ngc = 2pi*0.2 MHz\nphi2 = 0 rad\n"
    "vary = eps2\nvalues = 2pi*2272.8 kHz, 2pi*2841 kHz, 2pi*3598.6 kHz\n",
    ("amplitude values are 2.4, 3.0 and 3.8 times omega2 with a zero phase",
     "optomechanical coupling fixed at 2pi*6 kHz",
     "mirror-mirror coupling fixed at 2pi*0.2 MHz; with it at zero the "
     "mirror-2 tone would not reach the cavity at all"))


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") \
            from None
