"""A servant for the paper's Mail example (examples/idl/mail.idl).

Used by the supervised-serving recipe in the README and the CI
multi-process smoke job::

    PYTHONPATH=src:examples python -m repro.tools.cli serve \
        examples/idl/mail.idl --impl mail_servant:MailServant \
        --workers 4 --metrics-port 9464

The servant implements every operation of both schema generations
(``mail.idl`` and its DECODE_COMPATIBLE evolution ``mail_v2.idl``), so
a SIGHUP rollout from v1 to v2 can land on it without a code change:
``expunge`` only becomes reachable once the v2 stubs serve.
"""


class MailServant:
    """An in-memory mailbox; one slot per message."""

    def __init__(self):
        self._slots = {}
        self._next = 0

    def send(self, msg, urgency):
        self._slots[self._next] = (msg, urgency)
        self._next += 1

    def check(self, user):
        return len(self._slots)

    def fetch(self, slot):
        message = self._slots.get(slot)
        return message[0] if message is not None else ""

    def expunge(self, slot):  # mail_v2.idl only
        self._slots.pop(slot, None)


def main():
    """Self-check: serve the servant in-process through the v2 stubs."""
    import os
    import sys

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from repro import api
    from repro.runtime import StubServer, TcpClientTransport

    idl = open(os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "idl", "mail_v2.idl")).read()
    module = api.compile(idl, "corba").module
    with StubServer(module, MailServant()).tcp_server() as server:
        client = module.MailClient(
            TcpClientTransport(*server.address))
        client.send("hello", 1)
        client.send("world", 2)
        assert client.check("bob") == 2
        assert client.fetch(0) == "hello"
        client.expunge(0)
        assert client.check("bob") == 1
    print("OK: MailServant served mail_v2.idl "
          "(2 sent, 1 expunged, 1 left)")


if __name__ == "__main__":
    main()
