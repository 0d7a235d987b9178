// Package archtest holds the repository's design rules as one test that
// reads types, not text. arch_test.go loads the module once with the
// standard library's go/build, go/parser and go/types, and checks each rule
// over what the type checker resolved (uses, definitions, expression
// types), so an aliased import or a method value counts as a use. A
// violation names its file:line and its rule.
//
// Every rule has a negative fixture under testdata/<rule>/, type-checked
// under the import path the rule guards; the rule must report the lines the
// fixture marks with "// want", and no other rule may report anything.
//
// The package has no non-test code beyond this comment. Run it with
//
//	go test ./internal/archtest/
package archtest
