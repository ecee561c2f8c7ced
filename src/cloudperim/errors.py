"""Exception types shared across the toolkit."""


class CloudPerimError(Exception):
    """Base class for all toolkit errors."""


class UnknownNodeError(CloudPerimError):
    """Hierarchy node id does not exist."""


class UnknownTemplateError(CloudPerimError):
    """No built-in scenario with that name."""


class UnknownLocusError(CloudPerimError):
    """Source locus is neither a segment id nor ONPREM/INTERNET."""


class UnknownTargetError(CloudPerimError):
    """Target is not a known service, endpoint, address, or INTERNET."""


class UnknownPrincipalError(CloudPerimError):
    """Principal id does not exist."""


class UnknownIdpError(CloudPerimError):
    """Identity provider id does not exist."""


class UnknownEntityError(CloudPerimError):
    """A flow request references an entity the scenario does not define."""


class UnknownPerimeterError(CloudPerimError):
    """Perimeter id does not exist."""


class UnknownTagError(CloudPerimError):
    """No data asset in the scenario carries the tag."""


class UnknownWorkloadError(CloudPerimError):
    """Workload id matches no service, backend, or workload group."""


class EmptyPerimeterError(CloudPerimError):
    """Perimeter member selector resolved to zero projects."""


class IncompatibleRequestSpaceError(CloudPerimError):
    """A request in the shared space references entities missing from one scenario."""


class UnresolvableMemberError(CloudPerimError):
    """Perimeter member has no concrete network address in lift-shift compilation."""


class RequestSpaceTooLargeError(CloudPerimError):
    """Enumerated request space exceeds the configured cell cap."""


class InvalidHierarchyError(CloudPerimError):
    """Resource hierarchy contains a parent cycle."""


class InvalidScenarioError(CloudPerimError):
    """Scenario has structural violations, so nothing may evaluate it.

    Carries the violations ``validate_scenario`` returns, in its order.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class ScenarioParseError(CloudPerimError):
    """Document could not be parsed into a scenario.

    Carries the complete list of issues found (never fail-fast).
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))
