#!/usr/bin/env python
"""Quickstart: the paper's Mail interface, end to end in one file.

The paper opens with this CORBA IDL::

    interface Mail {
        void send(in string msg);
    };

Here we compile it with Flick, load the generated stubs, implement a
servant, and invoke it through the generated client proxy over an
in-process transport.  Everything the paper's Figure 1 shows — front end,
presentation generator, back end — runs inside ``api.compile``.
"""

from repro import api
from repro.runtime import LoopbackTransport

MAIL_IDL = """
interface Mail {
    void send(in string msg);
    long pending();
};
"""


def main():
    # Compile: CORBA IDL -> AOI -> PRES_C -> IIOP/CDR stubs.
    result = api.compile(MAIL_IDL, "corba", backend="iiop")

    print("compiled interface:", result.interface.name)
    print("presentation style:", result.presc.presentation_style)
    print("back end:          ", result.stubs.backend_name)
    print()

    # The generated C prototype is the paper's programmer's contract:
    for line in result.stubs.c_header.splitlines():
        if "Mail_send(" in line:
            print("C contract:", line.strip())
    print()

    # Load the executable Python stubs and implement the servant.
    module = result.module

    class MailBox(module.MailServant):
        def __init__(self):
            self.messages = []

        def send(self, msg):
            self.messages.append(msg)

        def pending(self):
            return len(self.messages)

    servant = MailBox()
    client = module.MailClient(LoopbackTransport(module.dispatch, servant))

    client.send("hello, world")
    client.send("flick is an IDL compiler")
    count = client.pending()

    print("sent two messages; server reports %d pending" % count)
    print("server saw:", servant.messages)
    assert count == 2
    assert servant.messages[0] == "hello, world"
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
