"""Frozen records: one generic ``__init__`` for every record, so defining one
runs no generated code and importing the package loads no dataclass module."""


class Record:
    """Immutable record with ``__init__``, ``==``, ``hash`` and ``repr`` over its fields:
    the subclass's own annotations, in order, with class attributes as defaults.
    ``__post_init__`` is looked up on every construction, so it can be patched,
    and may normalize a field with ``object.__setattr__``."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        kind, fields, given = type(self).__name__, self._fields, dict(zip(self._fields, args))
        if len(args) > len(fields):
            raise TypeError(f"{kind}() takes {len(fields)} fields but {len(args)} were given")
        for name in kwargs:
            if name in given or name not in fields:
                raise TypeError(f"{kind}() got {'a repeated' if name in given else 'an unknown'} field {name!r}")
        values = {**self._defaults, **given, **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{kind}() is missing field(s) {', '.join(map(repr, missing))}")
        self.__dict__.update({name: values[name] for name in fields})
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: self.__dict__[name] for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})  # validated again, as a new record

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self._asdict().values()) == tuple(other._asdict().values())

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._asdict().items())})"
