from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[
        HealthCheck.large_base_example,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
        HealthCheck.too_slow,
    ],
)
# the default profile without shrinking, for scripts/mutants.py: a failure
# ends the test at the first failing example
settings.register_profile(
    "no-shrink",
    parent=settings.get_profile("default"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("default")
