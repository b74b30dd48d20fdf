"""turbdiff: conditional denoising diffusion for turbulence-style
degradation removal on small images, from first principles on numpy.

The package covers the full desk-scale pipeline: a seeded splittable RNG
and a reverse-mode autodiff engine (:mod:`turbdiff.rng`,
:mod:`turbdiff.autodiff`), noise schedules with inference respacing
(:mod:`turbdiff.schedule`), the forward process and truncated-start
conditional sampler (:mod:`turbdiff.diffusion`), a small conditional
noise-prediction network (:mod:`turbdiff.denoiser`), staged training with
EMA-teacher distillation (:mod:`turbdiff.training`), the degradation
synthesizer and toy-face corpus (:mod:`turbdiff.turbulence`,
:mod:`turbdiff.toyfaces`), PSNR/SSIM (:mod:`turbdiff.metrics`), and the
file formats plus command-line front end (:mod:`turbdiff.formats`,
:mod:`turbdiff.cli`).
"""

__version__ = "0.1.0"
