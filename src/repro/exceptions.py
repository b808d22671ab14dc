"""Exception hierarchy for the schema-merging library.

The paper distinguishes two failure modes of the merge (section 4.2):

* the schemas may be *incompatible* — the union of their specialization
  relations has a cycle, so no common upper bound exists
  (:class:`IncompatibleSchemasError`);
* the schemas may be *inconsistent* — an implicit class would identify
  real-world classes that the consistency relationship says cannot share
  instances (:class:`InconsistentSchemasError`).

Everything else (malformed input graphs, broken invariants, bad
translations) raises more specific subclasses of :class:`SchemaError` so
callers can distinguish user errors from library bugs.
"""

from __future__ import annotations


class SchemaError(Exception):
    """Base class for all errors raised by this library."""


class SchemaValidationError(SchemaError):
    """A graph fails the structural requirements of a (weak) schema.

    Raised when arrow or specialization edges mention unknown classes,
    when the specialization relation is not a partial order, or when the
    W1/W2 closure conditions of section 4.1 are violated by a graph that
    was asserted to be already closed.
    """


class NotProperError(SchemaError):
    """A weak schema was used where a proper schema is required.

    Proper schemas additionally satisfy condition 1 of section 2: every
    populated arrow label has a *canonical class* (a least target under
    the specialization order).
    """


class IncompatibleSchemasError(SchemaError):
    """The schemas have no common upper bound.

    Section 4.1: a finite collection of weak schemas is *compatible* iff
    the transitive closure of the union of their specialization relations
    is antisymmetric.  When it is not, the least upper bound (and hence
    the merge) does not exist.
    """

    def __init__(self, message: str, cycle: tuple = ()):  # noqa: D401
        super().__init__(message)
        #: A witness cycle of class names demonstrating the failure of
        #: antisymmetry, when one could be extracted.
        self.cycle = tuple(cycle)


class InconsistentSchemasError(SchemaError):
    """An implicit class would conflate classes marked inconsistent.

    Section 4.2 proposes a *consistency relationship* on class names; a
    merge fails when some implicit class contains a pair of classes not
    related by it.
    """

    def __init__(self, message: str, offending_pair: tuple = ()):  # noqa: D401
        super().__init__(message)
        #: The pair of class names that the consistency relationship
        #: rejects, when available.
        self.offending_pair = tuple(offending_pair)


class KeyConstraintError(SchemaError):
    """A key family violates its structural requirements.

    Keys of a class must be sets of labels of arrows out of that class,
    and specialization must only ever *add* keys (``p ==> q`` implies
    ``SK(p) ⊇ SK(q)``, section 5).
    """


class ParticipationError(SchemaError):
    """An invalid participation constraint or annotation was supplied."""


class TranslationError(SchemaError):
    """A schema cannot be translated to or from a restricted data model.

    Raised, for instance, when a generic schema does not satisfy the
    stratification constraints of the ER or relational models.
    """


class InstanceError(SchemaError):
    """An instance is malformed or does not satisfy a schema."""


class RenderError(SchemaError):
    """A schema cannot be rendered in the requested format."""


class SerializationError(SchemaError):
    """A document cannot be decoded into a library artifact."""


class ServiceError(SchemaError):
    """Base class for errors raised by the long-lived merge service.

    The service layer (:mod:`repro.service`) consolidates its failure
    modes here so callers — and the HTTP front end, which maps each
    subclass to a status code — never have to catch bare
    ``KeyError``/``ValueError``.
    """


class UnknownClassError(ServiceError, KeyError):
    """A lookup named a class (or component id) the registry never saw.

    Subclasses :class:`KeyError` so pre-taxonomy callers that caught
    ``KeyError`` keep working; new code should catch this type.  The
    HTTP front end maps it to ``404 Not Found``.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; read as a SchemaError.
        return self.args[0] if self.args else ""


class UnknownWorkloadError(ServiceError, KeyError):
    """A benchmark workload / request stream name is not registered."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class ServiceShutdownError(ServiceError):
    """The service was closed; no further requests are accepted.

    The HTTP front end maps it to ``503 Service Unavailable``.
    """


class InvalidRequestError(ServiceError, ValueError):
    """A malformed service request (bad parameter, unknown request kind).

    Subclasses :class:`ValueError` for pre-taxonomy callers; the HTTP
    front end maps it to ``400 Bad Request``.
    """


class BodyTooLargeError(InvalidRequestError):
    """A declared request body over the server's limit (HTTP 413, unread)."""


class BodyTimeoutError(InvalidRequestError):
    """A request body that did not arrive in time (HTTP 408)."""


class UnknownSchemaError(ServiceError, KeyError):
    """A lookup named a registered-schema *name* the registry never saw.

    Distinct from :class:`UnknownClassError`: classes are merge inputs,
    named schemas are registry entries with versions and a lifecycle.
    Subclasses :class:`KeyError` like its sibling; the HTTP front end
    maps it to ``404 Not Found``.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; read as a SchemaError.
        return self.args[0] if self.args else ""


class RetiredSchemaError(ServiceError):
    """The named schema existed but every version has been retired.

    Retirement is deliberate removal, not absence — the HTTP front end
    maps it to ``410 Gone`` so clients can distinguish "never existed"
    (404) from "withdrawn, stop asking" (410).
    """


class StorageError(ServiceError):
    """Base class for durable-registry failures (``repro.service.storage``).

    Covers backend I/O faults and recovery-time integrity violations;
    the HTTP front end maps the family to ``500 Internal Server Error``
    (persistence trouble is a server-side condition, never the
    client's request).
    """


class CorruptLogError(StorageError):
    """The append-only registration log fails its integrity checks.

    Raised at recovery when a well-formed log record has a checksum
    mismatch, the sequence numbers are not contiguous, or replaying a
    record does not reproduce the generation it committed.  A torn
    *final* record (a crash mid-append) is not corruption — recovery
    truncates to the last durable record instead.
    """


class StorageLockedError(StorageError):
    """Another process holds the data directory open.

    Two processes appending to one log would interleave its sequence
    numbers, so a directory has one owning process at a time.
    """


class CorruptSnapshotError(StorageError):
    """A persisted snapshot or manifest fails its integrity checks.

    Raised when a snapshot file's checksum or encoding is invalid or
    the decoded dense closure fails invariant re-validation.  A
    *missing* snapshot is not corruption — recovery falls back to full
    log replay.
    """

