package render

// Reference returns a Renderer like rd that takes the reference path: what
// the tests in package render_test (which may import internal/games, as this
// package's own tests may not) compare the shipped path against.
func Reference(rd Renderer) *Renderer {
	rd.reference = true
	return &rd
}
