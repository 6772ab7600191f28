// Fixture: violates obs-naming — an interpret-subsystem span that breaks the
// `<subsystem>.<operation>` lowercase-dotted convention (the real serve
// explain path records "interpret.explain"; an uppercase operation must
// be caught before it lands in trace dumps).
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void BadInterpretSpan() {
  RecordSpan("interpret.Explain");  // obs-naming: operation must be lowercase
}

}  // namespace fx
